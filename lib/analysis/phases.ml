module Merged = Siesta_merge.Merged
module Rank_list = Siesta_merge.Rank_list
module Grammar = Siesta_grammar.Grammar
module Event = Siesta_trace.Event

type phase = {
  iterations : int;
  events_per_iteration : int;
  ranks : Rank_list.t;
  leading_event : string;
}

let detect ?(min_iterations = 4) (m : Merged.t) =
  let g = { Grammar.main = []; rules = m.Merged.rules } in
  Array.to_list m.Merged.mains
  |> List.concat_map (fun entries ->
         List.filter_map
           (fun (e : Merged.mentry) ->
             if e.Merged.reps >= min_iterations then
               let body = Grammar.expand_rule g [ { Grammar.sym = e.Merged.sym; reps = 1 } ] in
               Some
                 {
                   iterations = e.Merged.reps;
                   events_per_iteration = Array.length body;
                   ranks = e.Merged.ranks;
                   leading_event =
                     (if Array.length body = 0 then "(empty)"
                      else Event.name m.Merged.terminals.(body.(0)));
                 }
             else None)
           entries)
  |> List.sort (fun a b ->
         compare
           (b.iterations * b.events_per_iteration)
           (a.iterations * a.events_per_iteration))

let render m =
  let phases = detect m in
  if phases = [] then "no iterative phases detected (no main-rule entry repeats >= 4 times)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "iterative phases (from the compressed grammar):\n";
    List.iteri
      (fun i p ->
        Buffer.add_string buf
          (Printf.sprintf
             "  phase %d: %d iterations x %d events/iteration, starts with %s, ranks %s\n" i
             p.iterations p.events_per_iteration p.leading_event
             (Format.asprintf "%a" Rank_list.pp p.ranks)))
      phases;
    Buffer.contents buf
  end
