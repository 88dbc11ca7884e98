(* Golden reproduction pin: E1..E12 at Small scale, verdict lines diffed
   against the committed test/golden/experiments.expected.  A behaviour
   change anywhere in the stack — enumeration, epistemic kernels, the
   optimizer, the protocol zoo — that flips a paper claim (or silently
   changes which claims are even checked) shows up as a one-line diff
   here.  Regenerate with:

     dune exec test/regen_golden.exe > test/golden/experiments.expected *)

open Helpers

let expected_path = "golden/experiments.expected"

let actual () =
  Format.asprintf "%a" Eba_harness.Experiments.pp_verdicts
    (Eba_harness.Experiments.all ~scale:Eba_harness.Experiments.Small ())

let tests =
  [
    slow "E1..E12 verdicts match the committed golden file" (fun () ->
        let expected = read_file expected_path in
        Alcotest.(check string) "experiments.expected" expected (actual ()));
    (* Served knowledge-query bytes and the Theorem 5.3 / Prop 4.3 witness
       lists for every named protocol.  Regenerate with:

         dune exec test/regen_golden.exe -- knowledge-query > test/golden/knowledge_query.expected *)
    slow "knowledge-query answers and witnesses match the committed golden file"
      (fun () ->
        Alcotest.(check string) "knowledge_query.expected"
          (read_file "golden/knowledge_query.expected")
          (Eba_harness.Knowledge_cases.render ()));
    (* Netsim sweep summaries for every operational protocol on four
       fabrics, with the spec's legacy mux field off and at 3.  Regenerate
       with:

         dune exec test/regen_golden.exe -- netsim-sweeps > test/golden/netsim_sweeps.expected *)
    test "netsim sweep summaries match the committed golden file at mux off and 3"
      (fun () ->
        let expected = read_file "golden/netsim_sweeps.expected" in
        Alcotest.(check string) "mux off" expected (Eba_harness.Netsim_cases.render ());
        Alcotest.(check string) "mux 3" expected
          (Eba_harness.Netsim_cases.render ~mux:(Eba.Server.Spec.Mux_live 3) ()));
    test "every experiment id appears exactly once in the golden file" (fun () ->
        let golden = read_file expected_path in
        List.iter
          (fun id ->
            let needle = id ^ " " in
            let occurrences = ref 0 in
            let lines = String.split_on_char '\n' golden in
            List.iter
              (fun l -> if String.starts_with ~prefix:needle l then incr occurrences)
              lines;
            check_int (id ^ " pinned once") 1 !occurrences)
          (Eba_harness.Experiments.ids ()));
  ]

let suite = ("golden", tests)
