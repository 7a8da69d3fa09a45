(* Inside the compressor: what the grammar of a real trace looks like.

     dune exec examples/grammar_explore.exe

   Traces SWEEP3D on 8 ranks, then shows the per-rank Sequitur grammar of
   rank 0, the effect of the run-length constraint, and the merged
   program-wide grammar with its rank lists. *)

module Pipeline = Siesta.Pipeline
module Recorder = Siesta_trace.Recorder
module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur
module Terminal_table = Siesta_merge.Terminal_table
module Merged = Siesta_merge.Merged

let () =
  let spec = Pipeline.spec ~workload:"Sweep3d" ~nranks:8 () in
  let traced = Pipeline.trace spec in
  let recorder = traced.Pipeline.recorder in
  let streams = Array.init 8 (Recorder.events recorder) in
  let table = Terminal_table.build streams in
  let seq0 = (Terminal_table.sequences table).(0) in
  Printf.printf "rank 0 trace: %d events over %d distinct terminals\n" (Array.length seq0)
    (Terminal_table.size table);

  let rle = Sequitur.of_seq seq0 in
  let plain = Sequitur.of_seq ~rle:false seq0 in
  Printf.printf "\nspace-optimized Sequitur: %d entries in %d rules + main\n"
    (Grammar.entry_count rle) (Grammar.rule_count rle);
  Printf.printf "plain Sequitur:           %d entries in %d rules + main\n"
    (Grammar.entry_count plain) (Grammar.rule_count plain);
  Printf.printf "\nrank 0 grammar (run-length exponents in ^n):\n%s\n"
    (Format.asprintf "%a" Grammar.pp rle);

  let merged = Siesta_merge.Pipeline.merge_streams ~nranks:8 streams in
  Printf.printf "\nmerged program-wide grammar: %s\n" (Merged.stats merged);
  Printf.printf "main rule of cluster 0 (symbol^reps [rank list]):\n";
  List.iteri
    (fun i (e : Merged.mentry) ->
      if i < 18 then
        Printf.printf "  %s^%d %s\n"
          (match e.Merged.sym with Grammar.T t -> Printf.sprintf "t%d" t | Grammar.N r -> Printf.sprintf "R%d" r)
          e.Merged.reps
          (Format.asprintf "%a" Siesta_merge.Rank_list.pp e.Merged.ranks))
    merged.Merged.mains.(0);
  let total = List.length merged.Merged.mains.(0) in
  if total > 18 then Printf.printf "  ... (%d more entries)\n" (total - 18);

  (* losslessness check, for the skeptical reader: walk each rank's
     merged program and compare it with its recorded sequence *)
  let ok = ref true in
  for r = 0 to 7 do
    let walked = ref [] in
    Merged.iter_rank (fun v -> walked := v :: !walked) merged r;
    if Array.of_list (List.rev !walked) <> (Terminal_table.sequences table).(r) then ok := false
  done;
  Printf.printf "\nlossless reconstruction of all 8 rank traces: %s\n"
    (if !ok then "verified" else "FAILED")
