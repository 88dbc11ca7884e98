(* Regenerates the committed golden files:

     dune exec test/regen_golden.exe                    > test/golden/experiments.expected
     dune exec test/regen_golden.exe -- probcheck-small > test/golden/probcheck_small.expected
     dune exec test/regen_golden.exe -- probcheck-n64   > test/golden/probcheck_n64.expected
     dune exec test/regen_golden.exe -- knowledge-query > test/golden/knowledge_query.expected
     dune exec test/regen_golden.exe -- netsim-sweeps   > test/golden/netsim_sweeps.expected *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "experiments" in
  match which with
  | "experiments" ->
      Format.printf "%a" Eba_harness.Experiments.pp_verdicts
        (Eba_harness.Experiments.all ~scale:Eba_harness.Experiments.Small ())
  | "probcheck-small" | "probcheck-n64" -> (
      let name = String.sub which 10 (String.length which - 10) in
      match Eba_harness.Probcheck_cases.by_name name with
      | Some report ->
          print_string (Eba.Json.to_string (Eba.Prob.Report.to_json report))
      | None -> assert false)
  | "knowledge-query" -> print_string (Eba_harness.Knowledge_cases.render ())
  | "netsim-sweeps" -> print_string (Eba_harness.Netsim_cases.render ())
  | other ->
      Printf.eprintf
        "regen_golden: unknown target %S (expected experiments, \
         probcheck-small, probcheck-n64, knowledge-query or netsim-sweeps)\n"
        other;
      exit 2
