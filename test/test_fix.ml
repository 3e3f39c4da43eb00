(* The fix loop's invariants beyond the golden transcripts: every
   materialized fix round-trips byte-stably through the pretty-printer,
   verdicts do not depend on the Par_sweep domain count, the
   nothing-to-fix path is an explicit exit-0 notice at the service
   layer, and the cache keys keep fix/eliminate/advise responses
   apart while excluding the jobs knob. *)

let threads = 8

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let parallel_funcs checked =
  Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog

(* Every (kernel, function) pair across both registry tiers whose
   advised plan materializes a fix — the same population `make
   fix-verify` gates on. *)
let verdicts =
  lazy
    (List.concat_map
       (fun k ->
         let checked = Kernels.Kernel.parse k in
         List.filter_map
           (fun func ->
             let advice = Fsmodel.Advisor.advise ~threads ~func checked in
             match Analysis.Fixer.verify ~advice ~threads ~func checked with
             | Analysis.Fixer.Fix v -> Some (k.Kernels.Kernel.name, v)
             | Analysis.Fixer.Nothing_to_fix _ -> None)
           (parallel_funcs checked))
       (Kernels.Registry.all () @ Kernels.Registry.micros ()))

let reparse source =
  Minic.Typecheck.check_program (Minic.Parser.parse_program source)

(* Round-trip comparisons ignore spans and the macro table: the
   transformed program is materialized post-expansion. *)
let strip p = Minic.Ast.erase_spans { p with Minic.Ast.macros = [] }

let test_roundtrip () =
  let vs = Lazy.force verdicts in
  Alcotest.(check bool) "some fixes materialize" true (vs <> []);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (name ^ ": verdict says it round-trips")
        true v.Analysis.Fixer.roundtrip_ok;
      let re = reparse v.Analysis.Fixer.source in
      Alcotest.(check bool)
        (name ^ ": reparse equals transformed AST")
        true
        (strip re.Minic.Typecheck.prog
        = strip v.Analysis.Fixer.transformed.Minic.Typecheck.prog);
      (* pretty is a fixed point: printing the reparse reproduces the
         emitted source byte for byte *)
      Alcotest.(check string)
        (name ^ ": pretty-printed source is byte-stable")
        v.Analysis.Fixer.source
        (Minic.Pretty.program_to_string re.Minic.Typecheck.prog))
    vs

(* Everything a caller can observe from a verdict, minus the AST. *)
let observables v =
  let open Analysis.Fixer in
  ( (v.before.fs, v.after.fs, v.before.races, v.after.races),
    (v.before.cost, v.after.cost, v.removal, v.cost_ratio),
    (v.roundtrip_ok, v.verified),
    v.source )

let test_jobs_determinism () =
  let k =
    match Kernels.Registry.find "struct_xy" with
    | Some k -> k
    | None -> Alcotest.fail "struct_xy kernel missing"
  in
  let checked = Kernels.Kernel.parse k in
  let func = List.hd (parallel_funcs checked) in
  let run domains =
    let advice = Fsmodel.Advisor.advise ~domains ~threads ~func checked in
    match Analysis.Fixer.verify ~advice ~threads ~func checked with
    | Analysis.Fixer.Fix v -> observables v
    | Analysis.Fixer.Nothing_to_fix r -> Alcotest.fail ("nothing to fix: " ^ r)
  in
  Alcotest.(check bool)
    "verdict identical at 1 and 4 sweep domains" true
    (run 1 = run 4)

(* Fixer.verify counts each nest's N_fs once: a certified nest takes the
   closed form the cost term already computes (no engine run), an
   uncertified one costs exactly one fast-engine run per side. *)
let test_engine_runs () =
  List.iter
    (fun (name, want) ->
      let k =
        match Kernels.Registry.find name with
        | Some k -> k
        | None -> Alcotest.fail (name ^ " kernel missing")
      in
      let checked = Kernels.Kernel.parse k in
      let func = k.Kernels.Kernel.func in
      let advice = Fsmodel.Advisor.advise ~threads ~func checked in
      let r0 = Fsmodel.Model.run_count () in
      (match Analysis.Fixer.verify ~advice ~threads ~func checked with
      | Analysis.Fixer.Fix _ -> ()
      | Analysis.Fixer.Nothing_to_fix r ->
          Alcotest.fail (name ^ ": nothing to fix: " ^ r));
      Alcotest.(check int)
        (name ^ ": engine runs in Fixer.verify")
        want
        (Fsmodel.Model.run_count () - r0))
    [ ("counter_slots", 0); ("heat", 0); ("transpose", 2) ]

(* Under [~chunk], a dynamic or guided nest keeps its schedule: its
   count must be the engine's replay of that schedule, not the closed
   form of the [schedule(static, c)] nest [Reuse.analyze] certifies.
   The static nest beside them takes the closed form. *)
let mixed_schedules =
  {|long counters[8];
long hits[64];
long tally[64];

void count(void) {
  int t;
  int r;
  int i;
  #pragma omp parallel for private(t,r) schedule(static,1)
  for (t = 0; t < 8; t++) {
    for (r = 0; r < 256; r++) {
      counters[t] += 1;
    }
  }
  #pragma omp parallel for private(i,r) schedule(dynamic,1)
  for (i = 0; i < 64; i++) {
    for (r = 0; r < 32; r++) {
      hits[i] += 1;
    }
  }
  #pragma omp parallel for private(i,r) schedule(guided,1)
  for (i = 0; i < 64; i++) {
    for (r = 0; r < 32; r++) {
      tally[i] += 1;
    }
  }
}
|}

let test_chunk_non_static () =
  let checked = reparse mixed_schedules in
  let func = "count" and chunk = 2 in
  let r0 = Fsmodel.Model.run_count () in
  match Analysis.Fixer.verify ~chunk ~threads ~func checked with
  | Analysis.Fixer.Nothing_to_fix r -> Alcotest.fail ("nothing to fix: " ^ r)
  | Analysis.Fixer.Fix v ->
      Alcotest.(check int)
        "one fast run per side for each non-static nest" 4
        (Fsmodel.Model.run_count () - r0);
      Alcotest.(check int)
        "before = reference engine under the chunk"
        (Fuzz.Oracle.reference_fs ~chunk ~threads ~func checked)
        v.Analysis.Fixer.before.Analysis.Fixer.fs;
      Alcotest.(check int)
        "after = reference engine under the chunk"
        (Fuzz.Oracle.reference_fs ~chunk ~threads ~func
           v.Analysis.Fixer.transformed)
        v.Analysis.Fixer.after.Analysis.Fixer.fs

let test_nothing_to_fix () =
  let store = Service.Api.create_store () in
  let content = read_file "fixtures/padded_struct.c" in
  let source = Service.Req.Text { name = "padded_struct.c"; content } in
  let check label kind =
    let p = Service.Api.exec store (Service.Req.v source kind) in
    Alcotest.(check int) (label ^ " exits 0") 0 p.Service.Api.code;
    Alcotest.(check bool)
      (label ^ " prints an explicit notice")
      true
      (contains p.Service.Api.err "nothing to fix")
  in
  check "eliminate" (Service.Req.Eliminate { func = None; threads });
  check "fix" (Service.Req.Fix { func = None; threads; jobs = None; json = false })

let test_cache_keys () =
  let source = Service.Req.Kernel "struct_xy" in
  let key kind =
    match Service.Req.cache_key (Service.Req.v source kind) with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  let fix ?(jobs = None) ?(json = false) () =
    Service.Req.Fix { func = None; threads; jobs; json }
  in
  let kf = key (fix ()) in
  Alcotest.(check bool)
    "fix and eliminate cache separately" true
    (kf <> key (Service.Req.Eliminate { func = None; threads }));
  Alcotest.(check bool)
    "fix and advise cache separately" true
    (kf <> key (Service.Req.Advise { func = None; threads; jobs = None }));
  (* jobs only parallelizes the sweep — identical results, shared key *)
  Alcotest.(check string) "jobs is not in the fix key" kf
    (key (fix ~jobs:(Some 4) ()));
  Alcotest.(check bool)
    "json output shape is in the fix key" true
    (kf <> key (fix ~json:true ()))

let () =
  Alcotest.run "fix"
    [
      ( "fix",
        [
          Alcotest.test_case "roundtrip" `Slow test_roundtrip;
          Alcotest.test_case "jobs-determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "engine-runs" `Quick test_engine_runs;
          Alcotest.test_case "chunk-non-static" `Quick test_chunk_non_static;
          Alcotest.test_case "nothing-to-fix" `Quick test_nothing_to_fix;
          Alcotest.test_case "cache-keys" `Quick test_cache_keys;
        ] );
    ]
