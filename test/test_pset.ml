(* Point-set bit vectors, model-checked against naive bool lists. *)

module P = Eba.Pset
open Helpers

let len = 150 (* straddles word boundaries *)

let gen_members = QCheck2.Gen.(list_size (int_bound 60) (int_bound (len - 1)))

let of_list l =
  let s = P.create len in
  List.iter (P.add s) l;
  s

let to_list s =
  let acc = ref [] in
  P.iter s (fun i -> acc := i :: !acc);
  List.rev !acc

let sorted_unique l = List.sort_uniq Stdlib.compare l

let unit_tests =
  [
    test "create empty / full" (fun () ->
        check "empty" true (P.is_empty (P.create len));
        check "full" true (P.is_full (P.full len));
        check_int "full card" len (P.cardinal (P.full len)));
    test "complement of empty is full" (fun () ->
        check "eq" true (P.equal (P.complement (P.create len)) (P.full len)));
    test "add and remove" (fun () ->
        let s = P.create len in
        P.add s 100;
        check "mem" true (P.mem s 100);
        P.remove s 100;
        check "gone" false (P.mem s 100));
    test "bounds checked" (fun () ->
        Alcotest.check_raises "oob" (Invalid_argument "Pset: index out of bounds")
          (fun () -> ignore (P.mem (P.create len) len)));
    test "length mismatch rejected" (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Pset: length mismatch")
          (fun () -> ignore (P.union (P.create 10) (P.create 11))));
    test "init matches predicate" (fun () ->
        let s = P.init len (fun i -> i mod 3 = 0) in
        check_int "card" 50 (P.cardinal s));
    test "init calls f once per index, in increasing order" (fun () ->
        List.iter
          (fun l ->
            let calls = ref [] in
            ignore (P.init l (fun i -> calls := i :: !calls; i mod 2 = 0));
            check (Printf.sprintf "order over %d" l) true (List.rev !calls = List.init l Fun.id))
          [ 0; 1; 61; 62; 63; 124; len ]);
    test "word-boundary lengths" (fun () ->
        (* straddle the 62-bit word size: 0, 61, 62, 63 and 124 exercise
           the last-word mask with rem = 0, bpw-1, 0, 1 and 0 *)
        List.iter
          (fun l ->
            let f = P.full l in
            check_int (Printf.sprintf "full %d card" l) l (P.cardinal f);
            check (Printf.sprintf "full %d is_full" l) true (P.is_full f);
            check
              (Printf.sprintf "complement full %d empty" l)
              true
              (P.is_empty (P.complement f));
            check
              (Printf.sprintf "complement empty %d full" l)
              true
              (P.equal (P.complement (P.create l)) f);
            check_int
              (Printf.sprintf "init all %d" l)
              l
              (P.cardinal (P.init l (fun _ -> true)));
            if l > 0 then begin
              let s = P.create l in
              P.add s (l - 1);
              check (Printf.sprintf "top bit %d" l) true (P.mem s (l - 1));
              check
                (Printf.sprintf "complement drops top bit %d" l)
                false
                (P.mem (P.complement s) (l - 1))
            end)
          [ 0; 61; 62; 63; 124 ]);
  ]

let prop_tests =
  [
    qtest "union" QCheck2.Gen.(pair gen_members gen_members) (fun (a, b) ->
        to_list (P.union (of_list a) (of_list b)) = sorted_unique (a @ b));
    qtest "inter" QCheck2.Gen.(pair gen_members gen_members) (fun (a, b) ->
        to_list (P.inter (of_list a) (of_list b))
        = sorted_unique (List.filter (fun x -> List.mem x b) a));
    qtest "diff" QCheck2.Gen.(pair gen_members gen_members) (fun (a, b) ->
        to_list (P.diff (of_list a) (of_list b))
        = sorted_unique (List.filter (fun x -> not (List.mem x b)) a));
    qtest "complement involution" gen_members (fun a ->
        P.equal (P.complement (P.complement (of_list a))) (of_list a));
    qtest "complement disjoint and covering" gen_members (fun a ->
        let s = of_list a in
        let c = P.complement s in
        P.is_empty (P.inter s c) && P.is_full (P.union s c));
    qtest "cardinal" gen_members (fun a ->
        P.cardinal (of_list a) = List.length (sorted_unique a));
    qtest "subset" QCheck2.Gen.(pair gen_members gen_members) (fun (a, b) ->
        P.subset (of_list a) (of_list b)
        = List.for_all (fun x -> List.mem x b) a);
    qtest "for_all over members" gen_members (fun a ->
        P.for_all (of_list a) (fun i -> List.mem i a));
    (* The layout the epistemic kernels read in place: point [p] is bit
       [p mod 62] of word [p / 62], there are ⌈len/62⌉ words (at least
       one), and no bit at or past [len] is ever set. *)
    qtest "words: one bit per point, none past the length"
      QCheck2.Gen.(pair (int_bound 200) (list_size (int_bound 40) nat))
      (fun (l, raw) ->
        let members = if l = 0 then [] else List.map (fun x -> x mod l) raw in
        let s = P.create l in
        List.iter (P.add s) members;
        let bpw = P.bits_per_word in
        let laid_out (t : P.t) =
          let words = t.P.words in
          let ok = ref (Array.length words = max 1 ((l + bpw - 1) / bpw)) in
          for p = 0 to (Array.length words * bpw) - 1 do
            let bit = words.(p / bpw) land (1 lsl (p mod bpw)) <> 0 in
            if bit <> (p < l && P.mem t p) then ok := false
          done;
          !ok
        in
        List.for_all laid_out
          [
            s;
            P.full l;
            P.complement s;
            P.init l (fun p -> List.mem p members);
            P.union s (P.complement s);
            P.diff (P.full l) s;
          ]
        && (l < bpw || (P.full l).P.words.(0) = P.full_word));
    qtest "choose is a member" gen_members (fun a ->
        match P.choose (of_list a) with
        | None -> a = []
        | Some i -> List.mem i a);
  ]

let suite = ("pset", unit_tests @ prop_tests)
