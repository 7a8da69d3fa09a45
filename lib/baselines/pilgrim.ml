module Proxy_ir = Siesta_synth.Proxy_ir
module Shrink = Siesta_synth.Shrink
module Merged = Siesta_merge.Merged
module Event = Siesta_trace.Event

let program merged =
  (* a proxy whose every computation cluster has the empty combination *)
  let max_cluster =
    Array.fold_left
      (fun acc ev -> match ev with Event.Compute c -> max acc (c + 1) | _ -> acc)
      0 merged.Merged.terminals
  in
  Proxy_ir.program
    {
      Proxy_ir.merged;
      combos = Array.make (max 1 max_cluster) (Array.make Siesta_blocks.Block.count 0.0);
      combo_errors = Array.make (max 1 max_cluster) 1.0;
      shrink = Shrink.identity;
      generated_on = "n/a";
    }
