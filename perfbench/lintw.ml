(* The two lint workloads: every input linted once per pass, one request
   at a time, each on a fresh [Api] store — what [fsdetect lint] does
   for one file. *)

module Api = Service.Api
module Req = Service.Req
module Model = Fsmodel.Model

type input = {
  name : string;
  text : string;
  req : Req.t;
  opts : Analysis.Lint.options;
  check : Util.tally -> Api.payload -> engine_runs:int -> unit;
}

let kernel_names () =
  List.map
    (fun k -> k.Kernels.Kernel.name)
    (Kernels.Registry.all () @ Kernels.Registry.micros ())

(* FS counts quoted by the [fs/line-conflict] findings of a text report
   ("counts N false-sharing case(s)", "counts no false-sharing case"). *)
let quoted_counts output =
  List.filter_map
    (fun line ->
      match
        (Util.find_sub line "[fs/line-conflict]", Util.find_sub line "counts ")
      with
      | Some _, Some i ->
          let rest = String.sub line (i + 7) (String.length line - i - 7) in
          let digits =
            String.concat ""
              (List.filter_map
                 (fun ch -> if ch >= '0' && ch <= '9' then Some (String.make 1 ch) else None)
                 (List.of_seq (String.to_seq (List.hd (String.split_on_char ' ' rest)))))
          in
          Some (if digits = "" then 0 else int_of_string digits)
      | _ -> None)
    (String.split_on_char '\n' output)
  |> List.filter (fun n -> n > 0)
  |> List.sort_uniq compare

(* The independent answer for a kernel without a golden: the
   [`Reference] engine's count for every parallel nest, at lint's
   default configuration (paper machine, 8 threads, pragma chunk). *)
let reference_counts ?tr (k : Kernels.Kernel.t) =
  let checked = Kernels.Kernel.parse k in
  let threads = Analysis.Lint.default_options.Analysis.Lint.threads in
  let cfg = Model.default_config ~threads () in
  List.concat_map
    (fun func ->
      List.map
        (fun nest ->
          let run () =
            (Model.run ~engine:`Reference cfg ~nest ~checked).Model.fs_cases
          in
          match tr with
          | Some tr -> Span.with_ tr ~req:(-1) "engine_ref" run
          | None -> run ())
        (Loopir.Lower.lower_all checked ~func
           ~params:[ ("num_threads", threads) ]))
    (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog)
  |> List.filter (fun n -> n > 0)
  |> List.sort_uniq compare

let ints l = String.concat "," (List.map string_of_int l)

(* lint-registry: every bundled kernel (Registry.all @ Registry.micros)
   under the CLI's default lint request.  Chosen because it is what a
   user runs: it loads the engines, attribution, the advisor and the
   fixer, and bypasses the cache (fresh stores) and, nearly, the
   frontend and dependence analysis.  The inputs are the bundled
   kernels whatever the seed, in registry order: the runtime keeps the
   heap a request grew, so peak memory depends on the order, and a
   fixed one keeps it comparable between runs.  Kernels with a
   committed text golden must reproduce it byte for byte; the others
   must quote exactly the [`Reference] engine's nonzero counts, and
   exit 1 exactly when they report a race. *)
let registry ?tr () =
  Kernels.Registry.all () @ Kernels.Registry.micros ()
  |> List.map (fun (k : Kernels.Kernel.t) ->
         let name = k.Kernels.Kernel.name in
         let golden = Printf.sprintf "test/golden/%s.lint.txt" name in
         let check =
           if Sys.file_exists golden then begin
             let want = Util.read_file golden in
             let code = if List.mem "race/loop-carried" (Util.rule_ids want) then 1 else 0 in
             fun t (p : Api.payload) ~engine_runs:_ ->
               Util.check t
                 (p.Api.output = want && p.Api.code = code)
                 "lint-registry %s: output differs from %s or exit %d <> %d" name
                 golden p.Api.code code
           end
           else begin
             let want = reference_counts ?tr k in
             fun t (p : Api.payload) ~engine_runs:_ ->
               let got = quoted_counts p.Api.output in
               let racy = List.mem "race/loop-carried" (Util.rule_ids p.Api.output) in
               let counts_ok =
                 if racy then List.for_all (fun n -> List.mem n want) got
                 else got = want
               in
               Util.check t
                 (counts_ok && p.Api.code = (if racy then 1 else 0) && p.Api.err = "")
                 "lint-registry %s: counts [%s] vs reference [%s], exit %d" name
                 (ints got) (ints want) p.Api.code
           end
         in
         {
           name;
           text = k.Kernels.Kernel.source;
           req = Req.lint_defaults (Req.Kernel name);
           opts = Analysis.Lint.default_options;
           check;
         })

(* lint-scaled: [count] generated sources under [--cost-model analytic].
   Chosen because the analytic path's cost grows with the trip count: it
   loads the closed form and the reuse model and bypasses the engines,
   the advisor and the fixer.  The rule ids must equal the generator's
   labels, and the request must make no engine evaluation (the analytic
   path's promise). *)
let scaled ~rng ~count =
  Gen.scaled ~rng ~count
  |> List.map (fun (s : Gen.src) ->
         let req = Req.lint_defaults (Req.Text { name = s.Gen.name; content = s.Gen.text }) in
         let req =
           match req.Req.kind with
           | Req.Lint l -> { req with Req.kind = Req.Lint { l with cost_model = `Analytic } }
           | _ -> req
         in
         let check t (p : Api.payload) ~engine_runs =
           let got = Util.rule_ids p.Api.output in
           Util.check t
             (got = s.Gen.labels && p.Api.code = 0 && engine_runs = 0)
             "lint-scaled %s: rules [%s] vs labels [%s], exit %d, %d engine run(s)"
             s.Gen.name (String.concat "," got) (String.concat "," s.Gen.labels)
             p.Api.code engine_runs
         in
         {
           name = s.Gen.name;
           text = s.Gen.text;
           req;
           opts = { Analysis.Lint.default_options with cost_model = `Analytic };
           check;
         })

type pass = {
  secs : float;  (** all requests *)
  per_input : (string * float) list;  (** seconds per request *)
  engine_runs : int;
}

(* One pass.  Each request starts after a full major collection
   ([Gc.compact]; the 5.1 runtime does not move objects), so its time
   does not pay for the garbage the previous request left, as a fresh
   [fsdetect lint] process would not.  A pass's time is the sum of its
   requests' times.  [between] runs before each request, off its clock. *)
let pass tally ~between inputs =
  let r0 = Model.run_count () in
  let per_input =
    List.map
      (fun inp ->
        between ();
        Gc.compact ();
        let store = Api.create_store () in
        let e0 = Model.run_count () in
        let s = Util.now () in
        let p = Api.exec store inp.req in
        let dt = Util.now () -. s in
        inp.check tally p ~engine_runs:(Model.run_count () - e0);
        (inp.name, dt))
      inputs
  in
  {
    secs = Util.sum (List.map snd per_input);
    per_input;
    engine_runs = Model.run_count () - r0;
  }

(* [count] passes, at least one.  Also returns the peak resident memory
   (MiB) as it stood after the first pass (later passes can still grow a
   heap the runtime never gives back) and the host's CPU steal share
   over the passes. *)
let passes tally ~count ~between inputs =
  let cpu0 = Util.cpu_times () in
  let first = pass tally ~between inputs in
  let peak = Util.peak_rss_mb None in
  let rest = List.init (max 0 (count - 1)) (fun _ -> pass tally ~between inputs) in
  (first :: rest, peak, Util.steal_share cpu0 (Util.cpu_times ()))

(* Each input's median time over the passes, in input order.  Noise on
   a shared host comes in slow spells of a second or two; a per-input
   median drops a spell that hit one pass, where a median of whole
   passes keeps any pass that a spell touched. *)
let typical passes =
  List.mapi
    (fun i (name, _) ->
      (name, Util.median (List.map (fun p -> snd (List.nth p.per_input i)) passes)))
    (List.hd passes).per_input

let end_to_end passes =
  let ts = List.map snd (typical passes) in
  let n = float_of_int (List.length ts) in
  let pass_s = Util.sum ts in
  (* the slowest third, at least one *)
  let slow =
    List.filteri
      (fun i _ -> i < max 1 ((List.length ts + 2) / 3))
      (List.sort (fun a b -> compare b a) ts)
  in
  [
    ("pass_s", pass_s, "s");
    ("throughput_rps", n /. pass_s, "req/s");
    ("req_p50_ms", 1e3 *. pass_s /. n, "ms");
    ("req_tail_ms", 1e3 *. Util.sum slow /. float_of_int (List.length slow), "ms");
  ]

(* The traced run: each input is requested untraced, then through the
   span-recording mirror, then untraced again; the mean of the two
   untraced times is its reference time.  Interleaving per input keeps
   the machine's drift out of the traced/untraced comparison.  Exact
   counts are taken around the untraced requests; the recorder-free
   probes for the attribution split run last. *)
let traced ~tally ~setup_tr inputs =
  let tr = Span.create ~tid:1 in
  let c = Mirror.counts () in
  let untraced = ref [] and engine_runs = ref 0 in
  let gc_minor = ref 0. and gc_major = ref 0 in
  let cpu0 = Util.cpu_times () in
  let exec inp =
    Gc.compact ();
    let store = Api.create_store () in
    let g0 = Gc.quick_stat () and e0 = Model.run_count () in
    let s = Util.now () in
    let p = Api.exec store inp.req in
    let dt = Util.now () -. s in
    let g1 = Gc.quick_stat () and runs = Model.run_count () - e0 in
    inp.check tally p ~engine_runs:runs;
    engine_runs := !engine_runs + runs;
    gc_minor := !gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    gc_major := !gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
    dt
  in
  List.iteri
    (fun i inp ->
      let a = exec inp in
      Gc.compact ();
      Span.with_ tr ~req:i "request" (fun () ->
          let checked = Mirror.minic tr ~req:i inp.text in
          Mirror.lint tr c ~req:i ~opts:inp.opts checked);
      let b = exec inp in
      untraced := (inp.name, (a +. b) /. 2.) :: !untraced)
    inputs;
  let per_input = List.rev !untraced in
  let steal = Util.steal_share cpu0 (Util.cpu_times ()) in
  let p0 = Util.now () in
  List.iter (fun probe -> probe ()) c.Mirror.probes;
  let probe_ms = 1e3 *. (Util.now () -. p0) in
  let spans = Span.spans [ setup_tr; tr ] in
  let acc = Span.totals spans in
  let api_ms = 1e3 *. Util.sum (List.map snd per_input) in
  let metrics =
    Mirror.metrics acc ~probe_ms c
    @ [
        (* the counts below cover both untraced requests of each input *)
        ("engine.runs", float_of_int !engine_runs /. 2., "count");
        ("lint.covered_share", Mirror.layer_self_ms acc /. api_ms, "ratio");
        ("trace.overhead_share", (Span.total_ms acc "request" -. api_ms) /. api_ms, "ratio");
        ("api.ms", api_ms, "ms");
        ("gc.minor_mwords", !gc_minor /. 2e6, "Mwords");
        ("gc.major_collections", float_of_int !gc_major /. 2., "count");
        ("peak_rss_mb", Util.peak_rss_mb None, "MiB");
        ("host.steal_share", steal, "ratio");
      ]
    @ List.filter_map
        (fun (name, dt) ->
          if List.mem name (kernel_names ()) then
            Some (Printf.sprintf "lint.%s.ms" name, 1e3 *. dt, "ms")
          else None)
        per_input
  in
  (metrics, spans)
