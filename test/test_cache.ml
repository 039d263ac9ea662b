open Tiling_cache

let test_config () =
  let c = Config.make ~size:8192 ~line:32 () in
  Alcotest.(check int) "sets" 256 c.Config.sets;
  let c2 = Config.make ~size:8192 ~line:32 ~assoc:4 () in
  Alcotest.(check int) "4-way sets" 64 c2.Config.sets;
  Alcotest.(check int) "line_of" 3 (Config.line_of c 127);
  Alcotest.(check int) "set_of wraps" 0 (Config.set_of c 8192);
  Alcotest.(check int) "negative addresses floor" (-1) (Config.line_of c (-1))

let test_config_validation () =
  let expect_invalid f = try ignore (f ()); Alcotest.fail "accepted" with Invalid_argument _ -> () in
  expect_invalid (fun () -> Config.make ~size:1000 ~line:32 ());
  expect_invalid (fun () -> Config.make ~size:1024 ~line:24 ());
  expect_invalid (fun () -> Config.make ~size:32 ~line:64 ());
  expect_invalid (fun () -> Config.make ~size:1024 ~line:32 ~assoc:0 ())

let test_direct_mapped_conflict () =
  let c = Config.make ~size:128 ~line:32 () in
  (* 4 sets; addresses 0 and 128 share set 0. *)
  let s = Sim.create c in
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:0 ~addr:128;
  Sim.access s ~ref_id:0 ~addr:0;
  let t = Sim.total s in
  Alcotest.(check int) "accesses" 3 t.Sim.accesses;
  Alcotest.(check int) "misses" 3 t.Sim.misses;
  Alcotest.(check int) "compulsory" 2 t.Sim.compulsory;
  Alcotest.(check int) "replacement" 1 (Sim.replacement t)

let test_hit_within_line () =
  let c = Config.make ~size:128 ~line:32 () in
  let s = Sim.create c in
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:0 ~addr:31;
  Sim.access s ~ref_id:0 ~addr:8;
  let t = Sim.total s in
  Alcotest.(check int) "one miss" 1 t.Sim.misses

let test_two_way_lru () =
  let c = Config.make ~size:128 ~line:32 ~assoc:2 () in
  (* 2 sets; lines 0, 2, 4 (addresses 0, 128, 256) all map to set 0. *)
  let s = Sim.create c in
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:0 ~addr:128;
  Sim.access s ~ref_id:0 ~addr:0;
  (* hit: both fit in 2 ways *)
  Alcotest.(check int) "hit with 2 ways" 2 (Sim.total s).Sim.misses;
  Sim.access s ~ref_id:0 ~addr:256;
  (* evicts LRU = line 128 *)
  Sim.access s ~ref_id:0 ~addr:128;
  (* miss again *)
  Alcotest.(check int) "LRU eviction order" 4 (Sim.total s).Sim.misses;
  Sim.access s ~ref_id:0 ~addr:0;
  (* 0 was MRU before 256: still resident? 0,256 resident, so hit *)
  Alcotest.(check int) "MRU protected" 5 (Sim.total s).Sim.misses

let test_per_ref_counters () =
  let c = Config.make ~size:128 ~line:32 () in
  let s = Sim.create ~num_refs:1 c in
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:5 ~addr:0;
  (* forces counter growth; hit *)
  let per = Sim.per_ref s in
  Alcotest.(check bool) "grown" true (Array.length per >= 6);
  Alcotest.(check int) "ref 0 misses" 1 per.(0).Sim.misses;
  Alcotest.(check int) "ref 5 hits" 0 per.(5).Sim.misses;
  Alcotest.(check int) "ref 5 accesses" 1 per.(5).Sim.accesses

let test_reset () =
  let c = Config.make ~size:128 ~line:32 () in
  let s = Sim.create c in
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.reset s;
  Alcotest.(check int) "zeroed" 0 (Sim.total s).Sim.accesses;
  Sim.access s ~ref_id:0 ~addr:0;
  Alcotest.(check int) "cold again" 1 (Sim.total s).Sim.compulsory

let test_ratios () =
  let counts = { Sim.accesses = 200; misses = 50; compulsory = 10 } in
  Alcotest.(check (float 1e-9)) "miss ratio" 0.25 (Sim.miss_ratio counts);
  Alcotest.(check (float 1e-9)) "replacement ratio" 0.2
    (Sim.replacement_ratio counts);
  let zero = { Sim.accesses = 0; misses = 0; compulsory = 0 } in
  Alcotest.(check (float 1e-9)) "empty" 0. (Sim.miss_ratio zero)

let test_lines_touched () =
  let c = Config.make ~size:128 ~line:32 () in
  let s = Sim.create c in
  List.iter (fun a -> Sim.access s ~ref_id:0 ~addr:a) [ 0; 32; 64; 0; 33 ];
  Alcotest.(check int) "distinct lines" 3 (Sim.lines_touched s)

let test_fully_associative () =
  let c = Config.make ~size:128 ~line:32 ~assoc:4 () in
  Alcotest.(check int) "one set" 1 c.Config.sets;
  let s = Sim.create c in
  (* 4 lines fit; a 5th evicts the least recently used (line 0). *)
  List.iter (fun a -> Sim.access s ~ref_id:0 ~addr:a) [ 0; 32; 64; 96; 128; 0 ];
  Alcotest.(check int) "misses" 6 (Sim.total s).Sim.misses

let suite =
  [
    Alcotest.test_case "config derivation" `Quick test_config;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
    Alcotest.test_case "hit within line" `Quick test_hit_within_line;
    Alcotest.test_case "2-way LRU" `Quick test_two_way_lru;
    Alcotest.test_case "per-ref counters" `Quick test_per_ref_counters;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "ratios" `Quick test_ratios;
    Alcotest.test_case "lines touched" `Quick test_lines_touched;
    Alcotest.test_case "fully associative LRU" `Quick test_fully_associative;
  ]

let test_writebacks () =
  let c = Config.make ~size:128 ~line:32 () in
  let s = Sim.create c in
  (* Clean eviction: no writeback. *)
  Sim.access s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:0 ~addr:128;
  Alcotest.(check int) "clean eviction" 0 (Sim.writebacks s);
  (* Dirty line evicted: one writeback. *)
  Sim.access ~write:true s ~ref_id:0 ~addr:128;
  Sim.access s ~ref_id:0 ~addr:0;
  Alcotest.(check int) "dirty eviction" 1 (Sim.writebacks s);
  (* Dirty bit survives an intervening read hit. *)
  Sim.access ~write:true s ~ref_id:0 ~addr:0;
  Sim.access s ~ref_id:0 ~addr:4;
  Sim.access s ~ref_id:0 ~addr:128;
  Alcotest.(check int) "dirty preserved across hits" 2 (Sim.writebacks s);
  Sim.reset s;
  Alcotest.(check int) "reset clears writebacks" 0 (Sim.writebacks s)

let test_report_has_writebacks () =
  let nest = Tiling_kernels.Kernels.t2d 16 in
  let r = Tiling_trace.Run.simulate nest (Config.make ~size:256 ~line:32 ()) in
  (* the transpose stores a whole array: many dirty evictions *)
  Alcotest.(check bool) "writebacks observed" true (r.Tiling_trace.Run.writebacks > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "writebacks" `Quick test_writebacks;
      Alcotest.test_case "report writebacks" `Quick test_report_has_writebacks;
    ]

(* The point solver divides by the line size, the set count and their
   product with shifts and masks, so [Config.make] must admit exactly the
   geometries where all three are powers of two.  With [size] and [line]
   powers of two, [line * assoc] divides [size] iff [assoc] is a power of
   two and [line * assoc <= size]; every other triple is rejected. *)
let prop_config_pow2 =
  let pow2_or_any lo hi =
    QCheck.Gen.(
      oneof [ map (fun k -> 1 lsl k) (int_range lo hi); int_range (-2) (1 lsl hi) ])
  in
  QCheck.Test.make ~name:"config geometry is a power-of-two lattice" ~count:2000
    (QCheck.make
       ~print:(fun (size, line, assoc) ->
         Printf.sprintf "size=%d line=%d assoc=%d" size line assoc)
       QCheck.Gen.(
         triple (pow2_or_any 0 20) (pow2_or_any 0 11)
           (oneof [ map (fun k -> 1 lsl k) (int_range 0 6); int_range (-2) 24 ])))
    (fun (size, line, assoc) ->
      let pow2 = Tiling_util.Intmath.is_pow2 in
      let admissible =
        pow2 size && pow2 line && pow2 assoc && line * assoc <= size
      in
      match Config.make ~size ~line ~assoc () with
      | c ->
          admissible && pow2 c.Config.line && pow2 c.Config.sets
          && pow2 (c.Config.sets * c.Config.line)
          && c.Config.sets * c.Config.line * c.Config.assoc = size
      | exception Invalid_argument _ -> not admissible)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_config_pow2 ]
