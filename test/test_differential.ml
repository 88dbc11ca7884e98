(* Differential testing: the semantic decision sets (Kb_protocol over the
   enumerated model) against the operational runner, point for point, over
   the exhaustive crash n=3 t=1 universe.  For each protocol with both a
   knowledge-based and a message-passing implementation, every nonfaulty
   processor must decide the same value at the same time in the
   corresponding run — Prop 2.2's "one model supports every protocol"
   claim, machine-checked as an equality of decision tables.

   (test_cross.ml checks the FIP and Thm 6.2 equivalences; this suite is
   the protocol-by-protocol matrix and reports *which* entries disagree,
   not just how many.) *)

module KB = Eba.Kb_protocol
module Val = Eba.Value
open Helpers

(* All (run, proc) entries where the semantic and operational decisions
   differ, with a printable description of both sides. *)
let disagreements fixture pair p =
  let show = function
    | None -> "undecided"
    | Some { Eba.Decision.at; value } -> Format.asprintf "%a@%d" Val.pp value at
  in
  List.map
    (fun (r, i, sem, op) ->
      Printf.sprintf "run %d proc %d: semantic %s vs operational %s" r i (show sem) (show op))
    (KB.mismatches (KB.decide (model fixture) pair) p)

let agree name fixture pair p () =
  match disagreements fixture pair p with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%s: %d nonfaulty decisions disagree; first: %s" name
        (List.length all) first

let tests =
  let e = env crash_3_1_3 in
  [
    test "P0 semantic = operational, exhaustive crash n=3 t=1"
      (agree "P0" crash_3_1_3 (Eba.Zoo.p0 e) (module Eba.P0.P0));
    test "P0opt (F^L,2) semantic = operational, exhaustive crash n=3 t=1"
      (agree "P0opt" crash_3_1_3 (Eba.Zoo.f_lambda_2 e) (module Eba.P0opt));
    test "FloodSet semantic = operational, exhaustive crash n=3 t=1"
      (agree "FloodSet" crash_3_1_3 (Eba.Zoo.sba_fixed_time e) (module Eba.Floodset));
    test "differential harness is sensitive (P0 vs the P1 decision sets)" (fun () ->
        (* sanity: the matrix must be able to fail — P1's decision pair
           cannot reproduce P0's operational decisions *)
        check "P1 pair vs P0 runner disagrees somewhere" true
          (disagreements crash_3_1_3 (Eba.Zoo.p1 e) (module Eba.P0.P0) <> []));
  ]

let suite = ("differential", tests)
