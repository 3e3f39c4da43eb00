(* The fix verification gate (`make fix-verify`).

   For every registry kernel and every micro-pattern kernel: run the
   advisor, materialize the fix, and require that

   - kernels expected to have attributed FS get a verified fix:
     >= 90% attributed-FS removal, no race introduced, round-trip
     through the printer, and no analytic cost regression
     (Fixer.verify's verdict);
   - the reference engine reproduces the verdict's before and after FS
     counts, which Fixer.verify takes from the closed form or one
     fast-engine run — engine agreement is gated here, not in the
     production path;
   - the execution simulator confirms it: false-sharing invalidation
     misses on the transformed kernel drop by >= 90% (skipped for
     sub-noise baselines);
   - control kernels (already padded / already spread) get an explicitly
     empty plan.

   Exits nonzero on the first unmet expectation, printing a per-kernel
   table either way.  The library half of the gate (engines + analytic
   model) lives in Analysis.Fixer; this executable adds the simulator
   leg, which the analysis library deliberately does not link. *)

let threads = 8

type expect = Fixes | Clean

(* Every kernel the gate runs, with what it must produce.  Micro controls
   are Clean; everything whose chunk-1 schedule false-shares must fix. *)
let expectations =
  [
    ("heat", Fixes);
    ("dft", Fixes);
    ("linear_regression", Fixes);
    ("saxpy", Fixes);
    ("stencil1d", Fixes);
    ("matvec", Fixes);
    ("transpose", Fixes);
    ("counter_slots", Fixes);
    ("bytes_adjacent", Fixes);
    ("struct_xy", Fixes);
    ("struct_xy_padded", Clean);
    ("padded_slots", Clean);
    ("histogram", Fixes);
    ("reduction_sum", Fixes);
  ]

let sim_false_misses (k : Kernels.Kernel.t) =
  let m = Execsim.Run.measure ~threads k in
  m.Execsim.Run.stats.Cachesim.Stats.coherence_false

let check failed name ok msg =
  if not ok then begin
    failed := true;
    Printf.printf "FAIL %-18s %s\n" name msg
  end

let () =
  let failed = ref false in
  Printf.printf
    "%-18s %-6s %8s %8s %8s %10s %10s %7s %10s %10s  %s\n"
    "kernel" "plan" "fs-pre" "fs-post" "removal" "cost-pre" "cost-post" "cost"
    "sim-pre" "sim-post" "verdict";
  List.iter
    (fun (name, expect) ->
      let k =
        match Kernels.Registry.find name with
        | Some k -> k
        | None ->
            failed := true;
            Printf.printf "FAIL %-18s not in registry\n" name;
            raise Exit
      in
      let checked = Kernels.Kernel.parse k in
      let func = k.Kernels.Kernel.func in
      let advice = Fsmodel.Advisor.advise ~threads ~func checked in
      match Analysis.Fixer.verify ~advice ~threads ~func checked with
      | Analysis.Fixer.Nothing_to_fix reason ->
          Printf.printf "%-18s %-6s %62s  %s\n" name "none" "" "clean";
          check failed name (expect = Clean)
            (Printf.sprintf "expected a fix, got: %s" reason)
      | Analysis.Fixer.Fix v ->
          let sim_before = sim_false_misses k in
          let sim_after =
            sim_false_misses
              {
                k with
                Kernels.Kernel.source = v.Analysis.Fixer.source;
                parametric = None;
              }
          in
          let pp_cost = function
            | Some c -> Printf.sprintf "%.4g" c
            | None -> "n/a"
          in
          Printf.printf "%-18s %-6d %8d %8d %7.1f%% %10s %10s %6s %10d %10d  %s\n"
            name
            (List.length v.Analysis.Fixer.plan.Fsmodel.Transform.rewrites)
            v.Analysis.Fixer.before.Analysis.Fixer.fs
            v.Analysis.Fixer.after.Analysis.Fixer.fs
            (100. *. v.Analysis.Fixer.removal)
            (pp_cost v.Analysis.Fixer.before.Analysis.Fixer.cost)
            (pp_cost v.Analysis.Fixer.after.Analysis.Fixer.cost)
            (match v.Analysis.Fixer.cost_ratio with
            | Some r -> Printf.sprintf "%.2fx" r
            | None -> "n/a")
            sim_before sim_after
            (if v.Analysis.Fixer.verified then "VERIFIED" else "UNVERIFIED");
          check failed name (expect = Fixes) "expected a clean kernel, got a fix";
          let ref_before = Fuzz.Oracle.reference_fs ~threads ~func checked
          and ref_after =
            Fuzz.Oracle.reference_fs ~threads ~func
              v.Analysis.Fixer.transformed
          in
          check failed name
            (ref_before = v.Analysis.Fixer.before.Analysis.Fixer.fs
            && ref_after = v.Analysis.Fixer.after.Analysis.Fixer.fs)
            (Printf.sprintf "reference engine N_fs %d->%d, verdict %d->%d"
               ref_before ref_after v.Analysis.Fixer.before.Analysis.Fixer.fs
               v.Analysis.Fixer.after.Analysis.Fixer.fs);
          check failed name v.Analysis.Fixer.verified
            "fix did not verify (removal/cost/race/round-trip)";
          (* simulator leg: transformed kernel must drop false invalidation
             misses by >= 90% (baselines under 100 misses are noise) *)
          if sim_before >= 100 then
            check failed name
              (sim_after * 10 <= sim_before)
              (Printf.sprintf "simulator: false misses %d -> %d (< 90%% drop)"
                 sim_before sim_after))
    expectations;
  if !failed then begin
    Printf.printf "fix-verify: FAILED\n";
    exit 1
  end
  else Printf.printf "fix-verify: all %d kernels ok\n" (List.length expectations)
