(* Self-contained HTML dashboard over one fidelity sweep.

   Same design constraints as the other viewers: one file, zero external
   requests, the curve embedded as plain JSON in a
   <script type="application/json" id="sweep-data"> block scrapeable by
   other tools, canvas rendering via the shared SiestaChart machinery
   (Siesta_obs.Html_embed).  Factors are powers of two, so every chart
   uses the log2 x-axis with ticks pinned to the swept schedule. *)

module Html_embed = Siesta_obs.Html_embed
module Ledger = Siesta_ledger.Ledger
module Pipeline = Siesta.Pipeline

let viewer_js =
  {js|
(function () {
  'use strict';
  var data = JSON.parse(document.getElementById('sweep-data').textContent);
  var pts = data.points;
  var factors = pts.map(function (p) { return p.factor; });

  function series(keys) {
    return keys.map(function (k) {
      return {
        name: k,
        points: pts.map(function (p) { return [p.factor, p[k]]; })
      };
    });
  }

  function renderAll() {
    var opts = { logX: true, xTicks: factors, xTickPrefix: 'x' };
    SiestaChart.linePlot('fid-chart', 'fid-legend',
      series(['time_error', 'timeline_distance', 'comm_matrix_dist', 'max_compute_mean']),
      Object.assign({ yLabel: 'fidelity error vs factor' }, opts));
    SiestaChart.linePlot('size-chart', 'size-legend',
      series(['proxy_bytes']),
      Object.assign({ yLabel: 'proxy size (bytes) vs factor' }, opts));
    SiestaChart.linePlot('cost-chart', 'cost-legend',
      series(['search_s', 'total_s']),
      Object.assign({ yLabel: 'synthesis seconds vs factor' }, opts));
  }

  window.addEventListener('resize', renderAll);
  renderAll();
})();
|js}

let render ?(title = "siesta fidelity sweep") (t : Sweep.t) =
  let b = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let kvs = Pipeline.spec_kvs t.Sweep.s_spec in
  let v k = Option.value ~default:"?" (List.assoc_opt k kvs) in
  p "<h1>%s</h1>\n" (Html_embed.html_escape title);
  p "<p>%s n=%s on %s/%s &middot; %d factor(s) &middot; %.4f s total</p>\n"
    (Html_embed.html_escape (v "workload"))
    (Html_embed.html_escape (v "nranks"))
    (Html_embed.html_escape (v "platform"))
    (Html_embed.html_escape (v "impl"))
    (List.length t.Sweep.s_points) t.Sweep.s_total_s;
  p "<h2>Fidelity errors</h2>\n<canvas id=\"fid-chart\"></canvas>\n";
  p "<div class=\"legend\" id=\"fid-legend\"></div>\n";
  p "<h2>Proxy size</h2>\n<canvas id=\"size-chart\"></canvas>\n";
  p "<div class=\"legend\" id=\"size-legend\"></div>\n";
  p "<h2>Synthesis cost</h2>\n<canvas id=\"cost-chart\"></canvas>\n";
  p "<div class=\"legend\" id=\"cost-legend\"></div>\n";
  p "<h2>Factors</h2>\n<table><thead><tr><th>factor</th><th>verdict</th>";
  p "<th>time err</th><th>timeline</th><th>comm L1</th><th>compute mean</th>";
  p "<th>bytes delta</th><th>proxy B</th><th>search s</th><th>cache</th></tr></thead>\n<tbody>\n";
  List.iter
    (fun (sp : Ledger.sweep_point) ->
      let f = sp.Ledger.sp_fidelity in
      p
        "<tr><td>x%s</td><td>%s</td><td>%.4f</td><td>%.3e</td><td>%.3e</td><td>%.4f</td><td>%.0f</td><td>%.0f</td><td>%.4f</td><td>%s</td></tr>\n"
        (Html_embed.html_escape (Ledger.factor_str sp.Ledger.sp_factor))
        (Html_embed.html_escape f.Ledger.lf_verdict)
        f.Ledger.lf_time_error f.Ledger.lf_timeline_distance f.Ledger.lf_comm_matrix_dist
        f.Ledger.lf_max_compute_mean sp.Ledger.sp_bytes_delta sp.Ledger.sp_proxy_bytes
        sp.Ledger.sp_search_s
        (Html_embed.html_escape (String.concat "/" (List.map snd sp.Ledger.sp_cache))))
    t.Sweep.s_points;
  p "</tbody></table>\n";
  Buffer.add_string b (Html_embed.data_block ~id:"sweep-data" (Sweep.to_json t));
  p "<script>%s</script>\n" Html_embed.chart_js;
  p "<script>%s</script>\n" viewer_js;
  Html_embed.page ~title ~css:Html_embed.dashboard_css ~body:(Buffer.contents b)

let write ?title t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?title t))
