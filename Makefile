# Convenience targets; everything real lives in dune.

SMOKE_TRACE := /tmp/siesta_smoke_trace.json
SMOKE_TIMELINE := /tmp/siesta_smoke_timeline.json
SMOKE_TIMELINE_HTML := /tmp/siesta_smoke_timeline.html
SMOKE_PROXY := /tmp/siesta_smoke_proxy.c
SMOKE_PROXY_WARM := /tmp/siesta_smoke_proxy_warm.c
SMOKE_METRICS := /tmp/siesta_smoke_metrics.json
SMOKE_STORE := /tmp/siesta_smoke_store
SMOKE_DUMP := /tmp/siesta_smoke_dump.ssb
SMOKE_PROXY_FROM := /tmp/siesta_smoke_proxy_from.c
SMOKE_PROXY_LIVE := /tmp/siesta_smoke_proxy_live.c
SMOKE_TREND_HTML := /tmp/siesta_smoke_trends.html
SMOKE_SWEEP_STORE := /tmp/siesta_smoke_sweep_store
SMOKE_SWEEP_HTML := /tmp/siesta_smoke_sweep.html
SMOKE_SWEEP_METRICS := /tmp/siesta_smoke_sweep_metrics.json
SMOKE_SERVE_SOCK := /tmp/siesta_smoke_serve.sock
SMOKE_SERVE_STORE := /tmp/siesta_smoke_serve_store
SMOKE_SERVE_LOG := /tmp/siesta_smoke_serve.log
SMOKE_SERVE_BLOB := /tmp/siesta_smoke_serve_blob.bin
SMOKE_SERVE_METRICS := /tmp/siesta_smoke_serve_metrics.json

.PHONY: all build test check smoke bench-check bench-quick clean

all: build

build:
	dune build

test:
	dune runtest

# build + full test suite + a CLI smoke run that exercises the
# --trace-out/--timeline-out paths end-to-end + the strict bench gate.
check: build test smoke bench-check

smoke: build
	dune exec bin/siesta_cli.exe -- synth CG -n 8 \
		--trace-out $(SMOKE_TRACE) -o $(SMOKE_PROXY)
	dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_TRACE) \
		--min-stage-spans 5
	dune exec bin/siesta_cli.exe -- trace CG -n 8 \
		--timeline-out $(SMOKE_TIMELINE)
	dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_TIMELINE) \
		--min-tracks 8
	dune exec bin/siesta_cli.exe -- diff -w CG -n 8
	dune exec bin/siesta_cli.exe -- diff -w CG -n 8 --timeline-out $(SMOKE_TIMELINE)
	dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_TIMELINE) \
		--min-tracks 8
	dune exec bin/siesta_cli.exe -- trace CG -n 8 \
		--timeline-html $(SMOKE_TIMELINE_HTML)
	@grep -q 'timeline-data' $(SMOKE_TIMELINE_HTML) \
		|| { echo "smoke: timeline HTML missing its data block" >&2; exit 1; }
	@# Trace dumps are framed trace blobs: a --dump must validate, and
	@# synthesizing from it with --from must emit the proxy a live run
	@# does, byte for byte.  A dump cut to 100 bytes must make both
	@# check-trace and --from exit 1.
	dune exec bin/siesta_cli.exe -- trace CG -n 8 --dump $(SMOKE_DUMP)
	dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_DUMP)
	dune exec bin/siesta_cli.exe -- synth CG -n 8 --from $(SMOKE_DUMP) \
		-o $(SMOKE_PROXY_FROM)
	dune exec bin/siesta_cli.exe -- synth CG -n 8 -o $(SMOKE_PROXY_LIVE)
	cmp $(SMOKE_PROXY_FROM) $(SMOKE_PROXY_LIVE)
	head -c 100 $(SMOKE_DUMP) > $(SMOKE_DUMP).cut
	@dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_DUMP).cut 2>/dev/null; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected check-trace exit 1 on a cut dump, got $$st" >&2; exit 1; }
	@dune exec bin/siesta_cli.exe -- synth CG -n 8 --from $(SMOKE_DUMP).cut \
		-o $(SMOKE_PROXY_FROM) 2>/dev/null; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected synth --from exit 1 on a cut dump, got $$st" >&2; exit 1; }
	@# A missing file and a JSON trace whose traceEvents is not an array
	@# are user errors: exit 1, not an internal error.
	@dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_DUMP).missing 2>/dev/null; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected check-trace exit 1 on a missing file, got $$st" >&2; exit 1; }
	@echo '{"traceEvents": 5}' > $(SMOKE_DUMP).json
	@dune exec bin/siesta_cli.exe -- check-trace $(SMOKE_DUMP).json 2>/dev/null; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected check-trace exit 1 on a non-array traceEvents, got $$st" >&2; exit 1; }
	@# A dump is the trace object a --cache run keeps: in a fresh store
	@# it equals the object named by the run record's trace_hash, and
	@# --from on that object emits the live proxy.
	rm -rf $(SMOKE_STORE)
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- trace CG -n 8 \
		--cache --dump $(SMOKE_DUMP)
	@set -e; \
	h=$$(SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs show 1 \
		| sed -n 's/.*trace_hash=\([0-9a-f]*\).*/\1/p'); \
	[ -n "$$h" ] || { echo "smoke: run #1 records no trace_hash" >&2; exit 1; }; \
	obj=$(SMOKE_STORE)/objects/$$(printf %s $$h | cut -c1-2)/$$(printf %s $$h | cut -c3-); \
	cmp $(SMOKE_DUMP) $$obj \
		|| { echo "smoke: dump differs from the store's trace object" >&2; exit 1; }; \
	dune exec bin/siesta_cli.exe -- synth CG -n 8 --from $$obj -o $(SMOKE_PROXY_FROM); \
	cmp $(SMOKE_PROXY_FROM) $(SMOKE_PROXY_LIVE) \
		|| { echo "smoke: --from on the store's trace object differs from the live proxy" >&2; exit 1; }
	@# Incremental cache: a cold run populates the store, the warm run
	@# must report a hit on every stage and reproduce the proxy
	@# byte-for-byte, and the store it built must verify clean with
	@# nothing to sweep.
	rm -rf $(SMOKE_STORE)
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- synth CG -n 8 \
		--cache -o $(SMOKE_PROXY)
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- synth CG -n 8 \
		--cache -o $(SMOKE_PROXY_WARM) --metrics-out $(SMOKE_METRICS) > $(SMOKE_PROXY_WARM).out
	cat $(SMOKE_PROXY_WARM).out
	@grep -qF 'cache: trace hit | merge hit | proxy search hit' $(SMOKE_PROXY_WARM).out \
		|| { echo "smoke: warm run was not a trace, merge and proxy search hit" >&2; exit 1; }
	@grep -Eq '"cache\.hits": \{"type": "counter", "value": [1-9]' $(SMOKE_METRICS) \
		|| { echo "smoke: warm run reported no cache hits" >&2; exit 1; }
	cmp $(SMOKE_PROXY) $(SMOKE_PROXY_WARM)
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- store verify
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- store gc --expect-clean
	@# Run ledger & regression radar: the two cached synth runs above
	@# each appended a run record; comparing them must pass, a perturbed
	@# diff must flip the radar to exit 1, each invocation must append
	@# exactly one record (a diff record carries the static check), and
	@# retention gc must leave the store verifiable with stage artifacts
	@# untouched.
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs ls
	@test "$$(SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs ls | grep -c ' synth ')" -ge 2 \
		|| { echo "smoke: expected two synth records in the ledger" >&2; exit 1; }
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs compare --baseline last
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- diff -w CG -n 8 --cache
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- diff -w CG -n 8 --cache --perturb comm || true
	@SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs compare --baseline last; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected regression exit 1 from perturbed diff, got $$st" >&2; exit 1; }
	@test "$$(SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs ls | grep -c '^#')" -eq 4 \
		|| { echo "smoke: expected four records (two synth, two diff) in the ledger" >&2; exit 1; }
	@SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs show 3 \
		| grep -q '^check   : verdict=clean' \
		|| { echo "smoke: runs show 3 printed no clean check line" >&2; exit 1; }
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs html -o $(SMOKE_TREND_HTML)
	@grep -q 'ledger-data' $(SMOKE_TREND_HTML) \
		|| { echo "smoke: trend HTML missing its data block" >&2; exit 1; }
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- runs gc --keep 2
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- store ls --long
	SIESTA_STORE=$(SMOKE_STORE) dune exec bin/siesta_cli.exe -- store verify
	@# Fidelity-sweep observatory: a cold sweep populates the store, the
	@# warm re-sweep must be pure cache replay (hit counters only — any
	@# trace/merge miss counter means a stage re-ran), the dashboard must
	@# embed its scrapeable data block, and comparing the two sweep
	@# records must find identical curves (exit 0).
	rm -rf $(SMOKE_SWEEP_STORE)
	SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- sweep CG -n 8 \
		--iters 3 --factors 1,2,4 --cache
	SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- sweep CG -n 8 \
		--iters 3 --factors 1,2,4 --cache \
		--html $(SMOKE_SWEEP_HTML) --metrics-out $(SMOKE_SWEEP_METRICS)
	@grep -q 'sweep-data' $(SMOKE_SWEEP_HTML) \
		|| { echo "smoke: sweep HTML missing its data block" >&2; exit 1; }
	@grep -q '"cache\.trace\.hits"' $(SMOKE_SWEEP_METRICS) \
		|| { echo "smoke: warm sweep reported no trace cache hits" >&2; exit 1; }
	@! grep -Eq '"cache\.(trace|merge)\.misses"' $(SMOKE_SWEEP_METRICS) \
		|| { echo "smoke: warm sweep re-ran a trace/merge stage" >&2; exit 1; }
	@test "$$(SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- runs ls | grep -c ' sweep ')" -eq 2 \
		|| { echo "smoke: expected exactly two sweep records in the ledger" >&2; exit 1; }
	SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- runs compare 1 2 --json
	@# A degraded curve must trip the sweep.f<factor> regression gate.
	SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- sweep CG -n 8 \
		--iters 3 --factors 1,2,4 --cache --perturb compute
	@SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- runs compare 2 3; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected curve-regression exit 1 from perturbed sweep, got $$st" >&2; exit 1; }
	@SIESTA_STORE=$(SMOKE_SWEEP_STORE) dune exec bin/siesta_cli.exe -- sweep CG -n 8 \
		--iters 3 --factors 1,2,0,4 --cache 2>/dev/null; \
		st=$$?; [ $$st -eq 2 ] \
		|| { echo "smoke: expected exit 2 from a bad --factors schedule, got $$st" >&2; exit 1; }
	@# Static communication check: clean registry workloads exit 0, a
	@# seeded fault flips the verdict to exit 1, and an unknown
	@# --perturb token is rejected with exit 2 naming itself.
	dune exec bin/siesta_cli.exe -- check CG -n 8
	dune exec bin/siesta_cli.exe -- check Sweep3d -n 8 --iters 2
	@dune exec bin/siesta_cli.exe -- check CG -n 8 --perturb deadlock; \
		st=$$?; [ $$st -eq 1 ] \
		|| { echo "smoke: expected check exit 1 on a seeded deadlock, got $$st" >&2; exit 1; }
	@dune exec bin/siesta_cli.exe -- check CG -n 8 --perturb bogus 2>/dev/null; \
		st=$$?; [ $$st -eq 2 ] \
		|| { echo "smoke: expected exit 2 from a bad --perturb token, got $$st" >&2; exit 1; }
	@# Losslessness at scale: a proxy synthesized from a 1.07 M-event
	@# trace must replay every rank's communication exactly as the
	@# original program makes it (diff exits 1 on any divergence).
	dune exec bin/siesta_cli.exe -- diff -w CG -n 16 --iters 3000
	@# Synthesis as a service: daemon on a temp unix socket; submit a
	@# job and poll it to done, warm re-submit must replay purely from
	@# the stage caches (all-hit metrics, zero misses after the warm
	@# run), the artifact blob over HTTP must be byte-identical to the
	@# store object on disk, SIGTERM must drain and exit 0, and the two
	@# jobs must have appended exactly one "report" record each.  The
	@# daemon runs from _build directly so the background process holds
	@# no dune lock.
	@rm -rf $(SMOKE_SERVE_STORE); rm -f $(SMOKE_SERVE_SOCK)
	@set -e; CLI=_build/default/bin/siesta_cli.exe; \
	$$CLI serve --socket $(SMOKE_SERVE_SOCK) --store $(SMOKE_SERVE_STORE) \
		> $(SMOKE_SERVE_LOG) 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		$$CLI http GET /healthz --socket $(SMOKE_SERVE_SOCK) >/dev/null 2>&1 \
			&& { up=1; break; }; sleep 0.1; done; \
	[ $$up -eq 1 ] || { echo "smoke: serve daemon never came up" >&2; cat $(SMOKE_SERVE_LOG) >&2; exit 1; }; \
	job=$$($$CLI http POST /jobs --socket $(SMOKE_SERVE_SOCK) \
		--data '{"workload":"CG","nranks":8,"iters":3}' --extract job); \
	st=queued; for i in $$(seq 1 200); do \
		st=$$($$CLI http GET /jobs/$$job --socket $(SMOKE_SERVE_SOCK) --extract state); \
		[ "$$st" = done ] && break; sleep 0.2; done; \
	[ "$$st" = done ] || { echo "smoke: serve job stuck in state '$$st'" >&2; kill $$pid; exit 1; }; \
	job2=$$($$CLI http POST /jobs --socket $(SMOKE_SERVE_SOCK) \
		--data '{"workload":"CG","nranks":8,"iters":3}' --extract job); \
	[ "$$job2" = "$$job" ] || { echo "smoke: warm re-submit changed the job id" >&2; kill $$pid; exit 1; }; \
	st=queued; for i in $$(seq 1 100); do \
		st=$$($$CLI http GET /jobs/$$job --socket $(SMOKE_SERVE_SOCK) --extract state); \
		[ "$$st" = done ] && break; sleep 0.2; done; \
	[ "$$st" = done ] || { echo "smoke: warm serve job stuck in state '$$st'" >&2; kill $$pid; exit 1; }; \
	for stage in trace merge proxy; do \
		hit=$$($$CLI http GET /jobs/$$job --socket $(SMOKE_SERVE_SOCK) --extract cache/$$stage); \
		[ "$$hit" = hit ] || { echo "smoke: warm serve job $$stage stage was '$$hit', not a cache hit" >&2; kill $$pid; exit 1; }; \
	done; \
	$$CLI http GET /metricsz --socket $(SMOKE_SERVE_SOCK) -o $(SMOKE_SERVE_METRICS); \
	grep -q '"cache\.trace\.hits"' $(SMOKE_SERVE_METRICS) \
		|| { echo "smoke: serve /metricsz reports no trace cache hits" >&2; kill $$pid; exit 1; }; \
	grep -q '"serve\.jobs\.executed"' $(SMOKE_SERVE_METRICS) \
		|| { echo "smoke: serve /metricsz missing serve.* counters" >&2; kill $$pid; exit 1; }; \
	h=$$($$CLI http GET /jobs/$$job --socket $(SMOKE_SERVE_SOCK) --extract artifacts/proxy.c/hash); \
	$$CLI http GET /blobs/$$h --socket $(SMOKE_SERVE_SOCK) -o $(SMOKE_SERVE_BLOB); \
	cmp $(SMOKE_SERVE_BLOB) \
		$(SMOKE_SERVE_STORE)/objects/$$(printf %s $$h | cut -c1-2)/$$(printf %s $$h | cut -c3-) \
		|| { echo "smoke: served blob differs from the store object" >&2; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; rc=$$?; \
	[ $$rc -eq 0 ] || { echo "smoke: serve daemon exited $$rc on SIGTERM, not 0" >&2; exit 1; }; \
	[ ! -e $(SMOKE_SERVE_SOCK) ] || { echo "smoke: serve daemon left its socket behind" >&2; exit 1; }; \
	$$CLI runs ls --store $(SMOKE_SERVE_STORE); \
	n=$$($$CLI runs ls --store $(SMOKE_SERVE_STORE) | grep -c '^#' || true); \
	r=$$($$CLI runs ls --store $(SMOKE_SERVE_STORE) | grep -c '^#.* report ' || true); \
	[ "$$n" -eq 2 ] && [ "$$r" -eq 2 ] \
		|| { echo "smoke: expected two report records from the daemon, got $$n record(s), $$r report" >&2; exit 1; }; \
	echo "smoke: serve cold job + coalesced id + warm all-hit replay + blob cmp + clean SIGTERM drain + one record per job OK"
	@rm -f $(SMOKE_TRACE) $(SMOKE_TIMELINE) $(SMOKE_TIMELINE_HTML) \
		$(SMOKE_DUMP) $(SMOKE_DUMP).cut $(SMOKE_DUMP).json $(SMOKE_PROXY_FROM) \
		$(SMOKE_PROXY_LIVE) $(SMOKE_PROXY) $(SMOKE_PROXY_WARM) $(SMOKE_PROXY_WARM).out \
		$(SMOKE_METRICS) $(SMOKE_TREND_HTML) $(SMOKE_SWEEP_HTML) $(SMOKE_SWEEP_METRICS) \
		$(SMOKE_SERVE_SOCK) $(SMOKE_SERVE_LOG) $(SMOKE_SERVE_BLOB) \
		$(SMOKE_SERVE_METRICS)
	@rm -rf $(SMOKE_STORE) $(SMOKE_SWEEP_STORE) $(SMOKE_SERVE_STORE)

# regression gates, failing the build instead of printing a warning:
# telemetry overhead budget (enabled telemetry allocates <= 1% more
# minor-heap words than disabled), merge determinism (the streamed
# pipeline's merge equals the batch merge of the same events), a warm
# re-run served entirely from the bench store, streaming_throughput
# (at >= 10^6 events, tracing up to built per-rank grammars takes at
# most 8x the plain engine run timed in the same call) and
# streaming_heap_bounded (the words reachable from the recorder at 4x
# the events stay within 2x the small run's — memory tracks the
# distinct events, not trace length), and
# sweep-warm (a warm fidelity re-sweep is pure cache replay: every
# per-factor point hit/hit/hit with the same curve as the cold sweep).
bench-check: build
	dune exec bench/main.exe -- --quick --strict obs-overhead pipeline-scale sweep-warm

bench-quick:
	dune exec bench/main.exe -- --quick all

clean:
	dune clean
