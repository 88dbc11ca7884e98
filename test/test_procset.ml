(* Word/Wide processor-set equivalence (the PR-5 tentpole's safety net):

   1. Model checking: [Procset.Wide] agrees with a sorted-int-list model on
      random operation sequences at widths straddling every limb boundary
      — {0, 61, 62, 63, 64, 127, 128, 200}.

   2. Representation agreement: [Word] and [Wide] traces coincide
      element-for-element at widths <= 62, and so do [equal], [cardinal],
      [mem], [singleton], [is_empty], [full] and the order in which [iter]
      enumerates a set.  [Wide] stays canonical when its top limb empties.

   3. Protocol differential: P0opt, P0opt+ and Chain0 instantiated at
      [Word] and at [Wide] make bit-identical decisions (and message
      counts) across the exhaustive crash and omission n=3 t=1 universes.

   4. A wide netsim acceptance run: P0opt.Wide at n=80 (beyond any
      single-word representation) under loss, zero spec violations.

   5. The compact variants (P0opt-delta, P0opt+delta, Chain0-cert) at
      [Word] and at [Wide], as in 3, and the allocation bound of
      P0opt-delta's slot-set send at n=128.

   6. A negative index is refused by [singleton]/[add] and ignored by
      [remove] in both representations. *)

module Word = Eba.Procset.Word
module Wide = Eba.Procset.Wide
module Runner = Eba.Runner
module Net = Eba.Net
open Helpers

let sorted_unique l = List.sort_uniq Stdlib.compare l

(* --- operation sequences, applied to an arbitrary representation --- *)

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Inter of int list
  | Diff of int list

module Trace (S : Eba.Procset.S) = struct
  (* the [to_list] image of the state after every step *)
  let run ops =
    let step s = function
      | Add i -> S.add i s
      | Remove i -> S.remove i s
      | Union l -> S.union s (S.of_list l)
      | Inter l -> S.inter s (S.of_list l)
      | Diff l -> S.diff s (S.of_list l)
    in
    let _, tr =
      List.fold_left
        (fun (s, tr) op ->
          let s' = step s op in
          (s', S.to_list s' :: tr))
        (S.empty, []) ops
    in
    List.rev tr
end

module Trace_word = Trace (Word)
module Trace_wide = Trace (Wide)

let model_trace ops =
  let step l = function
    | Add i -> sorted_unique (i :: l)
    | Remove i -> List.filter (fun x -> x <> i) l
    | Union m -> sorted_unique (l @ m)
    | Inter m -> List.filter (fun x -> List.mem x m) l
    | Diff m -> List.filter (fun x -> not (List.mem x m)) l
  in
  let _, tr =
    List.fold_left
      (fun (l, tr) op ->
        let l' = step l op in
        (l', l' :: tr))
      ([], []) ops
  in
  List.rev tr

let gen_ops width =
  let open QCheck2.Gen in
  let elem = if width <= 1 then pure 0 else int_bound (width - 1) in
  let set = list_size (int_bound 8) elem in
  let op =
    oneof
      [
        map (fun i -> Add i) elem;
        map (fun i -> Remove i) elem;
        map (fun l -> Union l) set;
        map (fun l -> Inter l) set;
        map (fun l -> Diff l) set;
      ]
  in
  list_size (int_bound 25) op

let boundary_widths = [ 0; 61; 62; 63; 64; 127; 128; 200 ]
let word_widths = [ 0; 31; 61; 62 ]

let model_tests =
  List.map
    (fun w ->
      qtest ~count:80
        (Printf.sprintf "qcheck: Wide = list model, ops at width %d" w)
        (gen_ops w)
        (fun ops -> Trace_wide.run ops = model_trace ops))
    boundary_widths

let agreement_tests =
  List.map
    (fun w ->
      qtest ~count:80
        (Printf.sprintf "qcheck: Wide = Word, ops at width %d" w)
        (gen_ops w)
        (fun ops -> Trace_wide.run ops = Trace_word.run ops))
    word_widths

(* sets as element lists below width 62, for cross-representation checks *)
let gen_pair =
  QCheck2.Gen.(
    pair (list_size (int_bound 15) (int_bound 61)) (list_size (int_bound 15) (int_bound 61)))

let predicate_tests =
  [
    qtest ~count:200 "qcheck: equal, cardinal and iter order agree with Word" gen_pair
      (fun (a, b) ->
        let wa = Word.of_list a and wb = Word.of_list b in
        let da = Wide.of_list a and db = Wide.of_list b in
        let order iter s =
          let acc = ref [] in
          iter (fun i -> acc := i :: !acc) s;
          !acc
        in
        Word.equal wa wb = Wide.equal da db
        && Word.cardinal wa = Wide.cardinal da
        && order Word.iter wa = order Wide.iter da);
    qtest ~count:200 "qcheck: mem agrees with Word on members and non-members" gen_pair
      (fun (a, _) ->
        let wa = Word.of_list a and da = Wide.of_list a in
        List.for_all (fun i -> Word.mem i wa = Wide.mem i da) (List.init 64 Fun.id));
    qtest ~count:200 "qcheck: singleton and is_empty agree with Word" gen_pair
      (fun (a, b) ->
        let wd = Word.diff (Word.of_list a) (Word.of_list b)
        and dd = Wide.diff (Wide.of_list a) (Wide.of_list b) in
        Word.is_empty wd = Wide.is_empty dd
        && List.for_all
             (fun i -> Word.to_list (Word.singleton i) = Wide.to_list (Wide.singleton i))
             a);
  ]

let wide_unit_tests =
  [
    test "full across limb boundaries" (fun () ->
        List.iter
          (fun n ->
            let s = Wide.full n in
            check_int (Printf.sprintf "cardinal full %d" n) n (Wide.cardinal s);
            if n > 0 then check "top member" true (Wide.mem (n - 1) s);
            check "no overflow member" false (Wide.mem n s))
          [ 0; 1; 61; 62; 63; 124; 125; 200 ]);
    test "add/remove far beyond a word is canonical" (fun () ->
        let base = Wide.of_list [ 0; 3 ] in
        let roundtrip = Wide.remove 200 (Wide.add 200 base) in
        check "equal" true (Wide.equal base roundtrip));
    test "cross-length union/inter/diff" (fun () ->
        let lo = Wide.of_list [ 0; 5 ] and hi = Wide.of_list [ 5; 150 ] in
        Alcotest.(check (list int)) "union" [ 0; 5; 150 ] (Wide.to_list (Wide.union lo hi));
        Alcotest.(check (list int)) "inter" [ 5 ] (Wide.to_list (Wide.inter lo hi));
        Alcotest.(check (list int)) "diff lo hi" [ 0 ] (Wide.to_list (Wide.diff lo hi));
        Alcotest.(check (list int)) "diff hi lo" [ 150 ] (Wide.to_list (Wide.diff hi lo));
        check "inter collapses to short form" true
          (Wide.equal (Wide.inter lo hi) (Wide.of_list [ 5 ])));
    test "full agrees with Word at every width up to 62" (fun () ->
        for n = 0 to Word.max_width do
          Alcotest.(check (list int))
            (Printf.sprintf "full %d" n)
            (Word.to_list (Word.full n))
            (Wide.to_list (Wide.full n))
        done);
    test "full refuses a negative width; Word refuses one past 62" (fun () ->
        let raises f =
          try
            ignore (f ());
            false
          with Invalid_argument _ -> true
        in
        check "Word.full (-1)" true (raises (fun () -> Word.full (-1)));
        check "Wide.full (-1)" true (raises (fun () -> Wide.full (-1)));
        check "Word.full 63" true (raises (fun () -> Word.full (Word.max_width + 1)));
        check_int "Wide.full 63" 63 (Wide.cardinal (Wide.full (Word.max_width + 1))));
    test "removing a wide set's top member restores the short form" (fun () ->
        (* canonical limbs: structural equality is set equality *)
        let short = Wide.of_list [ 5 ] in
        let dropped = Wide.remove 150 (Wide.of_list [ 5; 150 ]) in
        check "set-equal" true (Wide.equal short dropped);
        check "structurally equal" true (Stdlib.compare short dropped = 0);
        check "emptied" true (Wide.is_empty (Wide.remove 150 (Wide.singleton 150)));
        check "is empty" true (Stdlib.compare Wide.empty (Wide.diff dropped short) = 0));
    test "of_list sorts and deduplicates across limbs" (fun () ->
        let s = Wide.of_list [ 150; 3; 150; 70; 3; 61; 62 ] in
        Alcotest.(check (list int)) "elements" [ 3; 61; 62; 70; 150 ] (Wide.to_list s);
        check_int "cardinal" 5 (Wide.cardinal s));
  ]

(* --- Word vs Wide protocol instances: bit-identical decisions --- *)

let rep_pairs :
    (string
    * (module Eba.Protocol_intf.PROTOCOL)
    * (module Eba.Protocol_intf.PROTOCOL))
    list =
  [
    ("P0opt", (module Eba.P0opt.Word), (module Eba.P0opt.Wide));
    ("P0opt+", (module Eba.P0opt_plus.Word), (module Eba.P0opt_plus.Wide));
    ("Chain0", (module Eba.Chain0.Word), (module Eba.Chain0.Wide));
  ]

let compact_rep_pairs :
    (string
    * (module Eba.Protocol_intf.PROTOCOL)
    * (module Eba.Protocol_intf.PROTOCOL))
    list =
  [
    ("P0opt-delta", (module Eba.P0opt.Compact.Word), (module Eba.P0opt.Compact.Wide));
    ( "P0opt+delta",
      (module Eba.P0opt_plus.Compact.Word),
      (module Eba.P0opt_plus.Compact.Wide) );
    ("Chain0-cert", (module Eba.Chain0.Compact.Word), (module Eba.Chain0.Compact.Wide));
  ]

let rep_disagreements (module A : Eba.Protocol_intf.PROTOCOL)
    (module B : Eba.Protocol_intf.PROTOCOL) params =
  let module RA = Runner.Make (A) in
  let module RB = Runner.Make (B) in
  let bad = ref 0 in
  Seq.iter
    (fun (config, pattern) ->
      let ta = RA.run params config pattern in
      let tb = RB.run params config pattern in
      if Stdlib.compare ta tb <> 0 then incr bad)
    (Eba.Universe.workload_seq params);
  !bad

let rep_differential_tests pairs =
  List.concat_map
    (fun (name, word, wide) ->
      [
        test
          (Printf.sprintf "%s Word = Wide, exhaustive crash n=3 t=1" name)
          (fun () ->
            check_int "disagreeing runs" 0
              (rep_disagreements word wide crash_3_1_3.params));
        test
          (Printf.sprintf "%s Word = Wide, exhaustive omission n=3 t=1" name)
          (fun () ->
            check_int "disagreeing runs" 0
              (rep_disagreements word wide omission_3_1_3.params));
      ])
    pairs

(* --- beyond any single word: optimal protocols under the simulator --- *)

let wide_netsim_tests =
  [
    test "P0opt.Wide n=80 under 5% loss: zero violations, all decide" (fun () ->
        let n = 80 and t = 8 in
        let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
        let topology =
          Net.Topology.make ~n
            ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss:0.05)
        in
        let sync = Net.Sync.default_for topology in
        let s =
          Net.Netsim.sweep ~jobs:1
            (Eba.P0opt.for_params params)
            params ~sync ~topology
            ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
            ~seed:5 ~runs:4
        in
        check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
        check_int "validity violations" 0 s.Net.Net_stats.ns_validity_violations;
        check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty;
        check "everyone nonfaulty decided" true
          (s.Net.Net_stats.ns_decided_nonfaulty > 0));
    test "for_params switches representation at the word width" (fun () ->
        (* observational: the wide instance must accept n = 63 where the
           word one raises on its first heard-set [add] past the width cap *)
        let mk n = Eba.Params.make ~n ~t:1 ~horizon:2 ~mode:Eba.Params.Crash in
        let run_with (module P : Eba.Protocol_intf.PROTOCOL) n =
          let params = mk n in
          let st = ref (P.init params ~me:0 Eba.Value.One) in
          let arrived = Array.make n None in
          (* everyone else sends me their round-1 message *)
          let senders =
            List.init (n - 1) (fun j ->
                let stj = P.init params ~me:(j + 1) Eba.Value.One in
                (j + 1, (P.send params stj ~round:1).(0)))
          in
          List.iter (fun (j, m) -> arrived.(j) <- m) senders;
          st := P.receive params !st ~round:1 arrived;
          P.output !st
        in
        check "word instance handles n=62" true
          (run_with (module Eba.P0opt.Word) 62 <> Some Eba.Value.Zero);
        check "for_params instance handles n=63" true
          (run_with (Eba.P0opt.for_params (mk 63)) 63 <> Some Eba.Value.Zero));
  ]

(* --- the slot-set delta's send allocates per destination, not per slot --- *)

let delta_alloc_tests =
  [
    test "P0opt-delta.Wide round-2 send at n=128: under 40 minor words per destination"
      (fun () ->
        let module P = Eba.P0opt.Compact.Wide in
        let n = 128 in
        let params = Eba.Params.make ~n ~t:16 ~horizon:17 ~mode:Eba.Params.Crash in
        let states = Array.init n (fun me -> P.init params ~me Eba.Value.One) in
        let round1 = Array.map (fun st -> P.send params st ~round:1) states in
        let st =
          P.receive params states.(0) ~round:1 (Array.init n (fun j -> round1.(j).(0)))
        in
        let before = Gc.minor_words () in
        let out = Sys.opaque_identity (P.send params st ~round:2) in
        let per_dest = (Gc.minor_words () -. before) /. float_of_int (n - 1) in
        check_int "a message per destination" (n - 1)
          (Array.fold_left (fun k m -> if Option.is_some m then k + 1 else k) 0 out);
        check (Printf.sprintf "%.1f minor words per destination" per_dest) true
          (per_dest < 40.0));
  ]

(* --- a negative index, in both representations --- *)

module Negative (S : Eba.Procset.S) = struct
  let raises f =
    match f () with
    | (_ : S.t) -> false
    | exception Invalid_argument _ -> true

  let check_rep name =
    let s = S.of_list [ 1; 2 ] in
    check (name ^ ": singleton (-1) raises") true (raises (fun () -> S.singleton (-1)));
    check (name ^ ": add (-1) raises") true (raises (fun () -> S.add (-1) s));
    check (name ^ ": remove (-1) is the identity") true (S.equal s (S.remove (-1) s))
end

let negative_index_tests =
  [
    test "negative index: singleton/add raise, remove ignores it, Word and Wide"
      (fun () ->
        let module W = Negative (Word) in
        let module D = Negative (Wide) in
        W.check_rep "Word";
        D.check_rep "Wide");
  ]

let tests =
  model_tests @ agreement_tests @ predicate_tests @ wide_unit_tests
  @ rep_differential_tests rep_pairs @ wide_netsim_tests
  @ rep_differential_tests compact_rep_pairs @ delta_alloc_tests @ negative_index_tests

let suite = ("procset", tests)
