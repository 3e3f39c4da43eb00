(* serve-mixed: one [fsdetect serve --jobs 2] process driven through its
   JSON-RPC pipe by a closed loop of two clients (the machine has two
   cores), each keeping one request in flight.  The request mix is an
   assumption, not a measured editor workload: the workload's definition
   names the request kinds and methods but no proportions, so every
   choice below is an equal weight unless its comment gives a reason.

   - Sources: one client per population the definition names.  The registry
     client sends the seven paper kernels ([Registry.all]), the nest
     client sends generated small nests, so each population holds one
     of the two in-flight slots.
   - Methods: the eight variants of [variants], equal weights on both
     clients.
   - The registry client walks a fixed rotation, the same at every seed:
     about a dozen of its 0.02-6 s requests finish in a run, so a seeded
     draw of them would make throughput a function of the draw, not of
     the program.
   - The nest client sends, in a seeded order and with equal weights,
     edits (a new digest: every stage misses), re-configured repeats (a
     recent source under a new chunk, thread count or arch: parse and
     typecheck hit, the response misses) and exact repeats of recent
     requests (response-stage hits).

   Both clients generate requests on demand, so neither runs dry however
   fast the server gets.  Hundreds of distinct small sources per run,
   each taking an entry per stage, overflow the default 1024 entries
   the cache holds across all stages, so inserts and evictions run
   beside reads.  Chosen because it is the only workload that loads the
   cache, the serve framing and queueing, Dist replay and explain, and
   the only one where the frontend runs often; it bypasses nothing. *)

module J = Analysis.Json
module Jsonp = Service.Jsonp
module Api = Service.Api
module Req = Service.Req

type rq = {
  meth : string;
  params : (string * J.t) list;
  key : string;  (** method + params: equal keys must get equal bytes *)
  cls : string;  (** registry | edit | reconfig | repeat *)
}

(* The method variants of the workload's definition, at their default parameters (the
   CLI flags they stand for in comments). *)
let variants =
  [|
    ("lint", [ ("fixits", J.Bool false) ]) (* lint --no-fixits *);
    ("lint", [ ("cost_model", J.Str "analytic") ]) (* --cost-model analytic *);
    ("explain", []);
    ("advise", []);
    ("fix", []);
    ("analyze", []);
    ("lint", [ ("schedule", J.Str "dynamic"); ("seeds", J.Int 8) ]);
    ("lint", [ ("schedule", J.Str "ws"); ("seeds", J.Int 8) ]);
  |]

let paper_kernels = List.map (fun k -> k.Kernels.Kernel.name) (Kernels.Registry.all ())

let make ~cls meth params =
  { meth; params; key = meth ^ Jsonp.to_line (J.Obj params); cls }

(* Request [i] of the registry client: variant [i mod 8] on kernel
   [(i / 8 + i) mod 7] (any eight consecutive requests cover every
   variant, and 56 cover every kernel-variant pair once), then the
   rotation repeats, exact repeats from then on. *)
let registry_client () =
  let ks = Array.of_list paper_kernels and nv = Array.length variants in
  let i = ref 0 in
  fun () ->
    let k = ks.(((!i / nv) + !i) mod Array.length ks) in
    let meth, extra = variants.(!i mod nv) in
    incr i;
    make ~cls:"registry" meth (("kernel", J.Str k) :: extra)

let text_params (s : Gen.src) =
  [ ("source", J.Str s.Gen.text); ("name", J.Str s.Gen.name) ]

(* The nest client, drawing from [rng] in blocks of 24: each of the
   three kinds with each of the eight variants once (an exact repeat
   keeps the method it repeats), in a seeded order.  Blocks keep every
   kind and method at its equal share in every stretch of a run, where
   independent draws would move each method's share by about a tenth
   from seed to seed.  Repeats and re-configurations pick among the last
   64 requests and sources: well inside the cache, so an exact repeat
   finds its response unless it was evicted early. *)
let nest_client rng =
  let recent_src = ref [] and recent = ref [] and edits = ref 0 in
  let block = ref [] in
  let keep x l = List.filteri (fun i _ -> i < 64) (x :: l) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edit (meth, extra) =
    let s = Gen.small ~rng ~rev:!edits in
    incr edits;
    recent_src := keep s !recent_src;
    make ~cls:"edit" meth (text_params s @ extra)
  in
  let reconfig (meth, extra) =
    let s = pick !recent_src in
    (* a chunk is a parameter of lint and explain only *)
    let changes =
      [ ("threads", J.Int 4); ("arch", J.Str "small_test") ]
      @
      if meth = "lint" || meth = "explain" then
        [ ("chunk", J.Int (1 + Random.State.int rng 16)) ]
      else []
    in
    make ~cls:"reconfig" meth (text_params s @ extra @ [ pick changes ])
  in
  fun () ->
    if !block = [] then begin
      let b =
        Array.of_list
          (List.concat_map
             (fun kind -> List.map (fun v -> (kind, v)) (Array.to_list variants))
             [ `Edit; `Reconfig; `Repeat ])
      in
      Gen.shuffle rng b;
      block := Array.to_list b
    end;
    let kind, v = List.hd !block in
    block := List.tl !block;
    let r =
      match kind with
      | `Edit -> edit v
      | `Reconfig when !recent_src = [] -> edit v
      | `Reconfig -> reconfig v
      | `Repeat when !recent = [] -> edit v
      | `Repeat -> { (pick !recent) with cls = "repeat" }
    in
    recent := keep r !recent;
    r

(* ---------------------------------------------------------------- *)
(* The pipe                                                          *)
(* ---------------------------------------------------------------- *)

type conn = {
  pid : int;
  oc : out_channel;
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
}

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--jobs"; "2" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    oc = Unix.out_channel_of_descr in_w;
    fd = out_r;
    buf = Buffer.create 65536;
    chunk = Bytes.create 65536;
  }

let send c id meth params =
  output_string c.oc
    (Jsonp.to_line
       (J.Obj [ ("id", J.Int id); ("method", J.Str meth); ("params", J.Obj params) ]));
  output_char c.oc '\n';
  flush c.oc

(* One response line, or [None] on EOF or when [deadline] passes. *)
let rec read_line c ~deadline =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
  | None -> (
      let wait = deadline -. Util.now () in
      if wait <= 0. then None
      else
        match Unix.select [ c.fd ] [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line c ~deadline
        | [], _, _ -> None
        | _ ->
            let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
            if n = 0 then None
            else begin
              Buffer.add_subbytes c.buf c.chunk 0 n;
              read_line c ~deadline
            end)

let id_of line =
  match Jsonp.parse line with
  | Ok j -> (j, Option.bind (Jsonp.member "id" j) Jsonp.to_int_opt)
  | Error _ -> (J.Null, None)

(* Ask the server to stop, close its input and reap it; kill it if it
   does not exit within ten seconds. *)
let stop c =
  (try
     send c (-2) "shutdown" [];
     close_out c.oc
   with Sys_error _ -> ());
  let deadline = Util.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill c.pid Sys.sigkill;
        ignore (Unix.waitpid [] c.pid)
    | _ -> ()
  in
  reap ();
  Unix.close c.fd

(* Set-up: make both clients, start the server, wait for the first
   ping. *)
let setup ~exe ~seed =
  let lanes = [| registry_client (); nest_client (Random.State.make [| seed |]) |] in
  let c = spawn exe in
  send c (-1) "ping" [];
  match read_line c ~deadline:(Util.now () +. 60.) with
  | Some line when snd (id_of line) = Some (-1) -> Ok (lanes, c)
  | _ ->
      stop c;
      Error "fsdetect serve did not answer ping"

(* ---------------------------------------------------------------- *)
(* The closed loop                                                   *)
(* ---------------------------------------------------------------- *)

let request_limit = 30.

type sent = { lane : int; rq : rq; at : float; mutable lat : float }

type run = {
  log : sent array;  (** by JSON-RPC id: every request sent, in order *)
  seconds : float;  (** the measuring window, from the first send *)
  t0 : float;
  peak_rss : float;
  steal : float;  (** the host's CPU steal share over the window *)
}

(* The exit code a response must carry, given its report: [lint] exits
   1 exactly when it reports a race, [fix] exactly when its verdict is
   not VERIFIED (the fixer may decline a nest: a spread that costs more
   than it saves), every other method 0. *)
let expected_code meth output =
  match meth with
  | "lint" -> if List.mem "race/loop-carried" (Util.rule_ids output) then 1 else 0
  | "fix" -> if Util.find_sub output "verdict: VERIFIED" = None then 1 else 0
  | _ -> 0

(* Each client sends until the window closes; the responses still in
   flight then are awaited and checked, but only responses that arrive
   inside the window count in the metrics. *)
let drive tally c lanes ~seconds =
  let log = ref [] and count = ref 0 in
  let by_id = Hashtbl.create 4096 and first = Hashtbl.create 4096 in
  let inflight = ref 0 and broken = ref false in
  let cpu0 = Util.cpu_times () in
  let t0 = Util.now () in
  let cpu1 = ref None in
  let send_from lane =
    if Util.now () -. t0 < seconds then begin
      let r = lanes.(lane) () in
      let s = { lane; rq = r; at = Util.now (); lat = nan } in
      Hashtbl.add by_id !count s;
      log := s :: !log;
      incr count;
      match send c (!count - 1) r.meth r.params with
      | () -> incr inflight
      | exception Sys_error e ->
          broken := true;
          Util.check tally false "serve-mixed: cannot send: %s" e
    end
    else if !cpu1 = None then cpu1 := Some (Util.cpu_times ())
  in
  send_from 0;
  send_from 1;
  while !inflight > 0 && not !broken do
    match read_line c ~deadline:(Util.now () +. request_limit) with
    | None ->
        broken := true;
        for _ = 1 to !inflight do
          Util.check tally false "serve-mixed: no response within %.0f s" request_limit
        done
    | Some line -> (
        let j, id = id_of line in
        match Option.bind id (Hashtbl.find_opt by_id) with
        | None ->
            broken := true;
            Util.check tally false "serve-mixed: response with unknown id: %s" line
        | Some s ->
            let r = s.rq in
            let lat = Util.now () -. s.at in
            s.lat <- lat;
            let result = Jsonp.member "result" j in
            let code =
              Option.bind (Option.bind result (Jsonp.member "code")) Jsonp.to_int_opt
            in
            let bytes = Option.map Jsonp.to_line result in
            let want =
              expected_code r.meth
                (Option.value ~default:""
                   (Option.bind (Option.bind result (Jsonp.member "output")) Jsonp.to_string_opt))
            in
            let same =
              match (Hashtbl.find_opt first r.key, bytes) with
              | Some b0, Some b -> b0 = b
              | None, Some b ->
                  Hashtbl.add first r.key b;
                  true
              | _, None -> false
            in
            Util.check tally
              (code = Some want && same && lat <= request_limit)
              "serve-mixed #%d %s %s: exit %s (want %d), %s, %.2f s" (Option.get id) r.cls
              r.meth
              (match code with
              | Some k -> string_of_int k
              | None -> "none (JSON-RPC error)")
              want
              (if same then "bytes as first response"
               else "bytes differ from first response")
              lat;
            decr inflight;
            send_from s.lane)
  done;
  let cpu1 = match !cpu1 with Some c -> c | None -> Util.cpu_times () in
  let peak_rss = Util.peak_rss_mb (Some c.pid) in
  {
    log = Array.of_list (List.rev !log);
    seconds;
    t0;
    peak_rss;
    steal = Util.steal_share cpu0 cpu1;
  }

(* Latencies (ms) of the responses that arrived inside the window. *)
let latencies_ms ?cls run =
  List.filter_map
    (fun s ->
      if
        Float.is_nan s.lat
        || s.at +. s.lat -. run.t0 > run.seconds
        || Option.fold ~none:false ~some:(( <> ) s.rq.cls) cls
      then None
      else Some (1e3 *. s.lat))
    (Array.to_list run.log)

(* [pass_s] and [throughput_rps] restate one count: serve-mixed has no
   pass, but every workload reports every end-to-end metric. *)
let end_to_end run =
  let lat = latencies_ms run in
  let answered = float_of_int (List.length lat) in
  let q, tail = Util.tail lat in
  ( [
      ("pass_s", run.seconds /. answered, "s");
      ("throughput_rps", answered /. run.seconds, "req/s");
      ("req_p50_ms", Util.median lat, "ms");
      ("req_tail_ms", tail, "ms");
    ],
    [
      Printf.sprintf "req_tail_ms is p%g over %d requests answered in the window" q
        (List.length lat);
      "latency deciles (ms): "
      ^ String.concat " "
          (List.init 9 (fun i ->
               Printf.sprintf "%.2f" (Util.percentile lat (float_of_int (10 * (i + 1))))));
    ]
    @ List.map
        (fun cls ->
          let l = latencies_ms ~cls run in
          Printf.sprintf "%-8s %5d answered, median %.2f ms" cls (List.length l)
            (Util.median l))
        [ "registry"; "edit"; "reconfig"; "repeat" ]
    @ [
      Printf.sprintf "peak_rss_mb %.4f MiB of the serve process (not gated)"
        run.peak_rss;
    ] )

(* ---------------------------------------------------------------- *)
(* The traced run                                                    *)
(* ---------------------------------------------------------------- *)

let decode r = Req.of_json ~meth:r.meth (J.Obj r.params)

(* Replay the run's requests in-process through [Api.exec] on one shared
   store, one domain per client lane in the order that lane sent them,
   and time each call. *)
let replay (log : sent array) =
  let store = Api.create_store () in
  let exec_s = Array.make (Array.length log) nan in
  let worker lane () =
    let tr = Span.create ~tid:(2 + lane) in
    Array.iteri
      (fun i s ->
        if s.lane = lane then
          match decode s.rq with
          | Ok req ->
              let t = Util.now () in
              ignore (Span.with_ tr ~req:i "api" (fun () -> Api.exec store req));
              exec_s.(i) <- Util.now () -. t
          | Error _ -> ())
      log;
    tr
  in
  let d = Domain.spawn (worker 0) in
  let b = worker 1 () in
  let a = Domain.join d in
  (store, exec_s, [ a; b ])

(* The mirror of every request that computed its response (first
   occurrence of its key), in stream order; parse and typecheck are
   mirrored on the first occurrence of each source. *)
let mirror (log : sent array) =
  let tr = Span.create ~tid:1 in
  let c = Mirror.counts () in
  let seen_key = Hashtbl.create 1024 and seen_src = Hashtbl.create 1024 in
  for i = 0 to Array.length log - 1 do
    let r = log.(i).rq in
    match decode r with
    | Error _ -> ()
    | Ok req when not (Hashtbl.mem seen_key r.key) -> (
        Hashtbl.add seen_key r.key ();
        match Req.source_text req.Req.source with
        | Error _ -> ()
        | Ok (uri, text) ->
            let arch = req.Req.arch in
            Span.with_ tr ~req:i "request" (fun () ->
                let checked =
                  match Hashtbl.find_opt seen_src text with
                  | Some ch -> ch
                  | None ->
                      let ch = Mirror.minic tr ~req:i text in
                      Hashtbl.add seen_src text ch;
                      ch
                in
                let func () =
                  match req.Req.source with
                  | Req.Kernel k | Req.Sym_kernel k -> (
                      match Kernels.Registry.find k with
                      | Some k -> k.Kernels.Kernel.func
                      | None -> "")
                  | Req.Text _ -> (
                      match
                        Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog
                      with
                      | f :: _ -> f
                      | [] -> "")
                in
                match req.Req.kind with
                | Req.Lint l ->
                    let opts =
                      {
                        Analysis.Lint.arch;
                        threads = l.threads;
                        chunk = l.chunk;
                        fixits = l.fixits;
                        params = l.params;
                        exact = l.exact;
                        exact_budget = l.exact_budget;
                        cost_model = l.cost_model;
                        sched = l.sched;
                        seeds = l.seeds;
                      }
                    in
                    Mirror.lint tr c ~req:i ~opts checked
                | Req.Explain e ->
                    Mirror.explain tr ~req:i ~arch ~threads:e.threads ~chunk:e.chunk
                      ~func:(func ()) checked ~text ~uri
                | Req.Advise a ->
                    ignore
                      (Mirror.advisor tr c ~req:i ~arch ~threads:a.threads
                         ~func:(func ()) checked)
                | Req.Fix f ->
                    let func = func () in
                    let advice =
                      Mirror.advisor tr c ~req:i ~arch ~threads:f.threads ~func checked
                    in
                    Mirror.fixer tr c ~req:i ~arch ?advice ~threads:f.threads ~func
                      checked
                | Req.Analyze a ->
                    let k =
                      match req.Req.source with
                      | Req.Kernel k -> Kernels.Registry.find k
                      | _ -> None
                    in
                    let default f d = Option.value ~default:(Option.fold ~none:d ~some:f k) in
                    Mirror.analyze tr ~req:i ~arch ~threads:a.threads
                      ~fs_chunk:(default (fun k -> k.Kernels.Kernel.fs_chunk) 1 a.fs_chunk)
                      ~nfs_chunk:(default (fun k -> k.Kernels.Kernel.nfs_chunk) 16 a.nfs_chunk)
                      ~func:(func ()) checked
                | Req.Eliminate _ | Req.Dump _ -> ()))
    | Ok _ -> ()
  done;
  (tr, c)

let traced run =
  let log = run.log in
  let gc0 = Gc.quick_stat () in
  let r0 = Fsmodel.Model.run_count () in
  let store, exec_s, replay_trs = replay log in
  let engine_runs = Fsmodel.Model.run_count () - r0 in
  let gc1 = Gc.quick_stat () in
  let tr, c = mirror log in
  let p0 = Util.now () in
  List.iter (fun probe -> probe ()) c.Mirror.probes;
  let probe_ms = 1e3 *. (Util.now () -. p0) in
  let spans = Span.spans (tr :: replay_trs) in
  let acc = Span.totals spans in
  let hit_share stage =
    let h, m = Api.stage_stats store stage in
    ( Printf.sprintf "cache.%s.hit_share" stage,
      (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)),
      "ratio" )
  in
  let distinct_keys = Hashtbl.create 4096 in
  Array.iter
    (fun s ->
      match Result.map Req.cache_key (decode s.rq) with
      | Ok (Ok k) -> Hashtbl.replace distinct_keys k ()
      | _ -> ())
    log;
  let _, resp_misses = Api.stage_stats store "resp" in
  let waits =
    List.filter_map
      (fun i ->
        if Float.is_nan log.(i).lat || Float.is_nan exec_s.(i) then None
        else Some (1e3 *. (log.(i).lat -. exec_s.(i))))
      (List.init (Array.length log) Fun.id)
  in
  let metrics =
    Mirror.metrics acc ~probe_ms c
    @ List.map hit_share [ "parse"; "typecheck"; "lower"; "lower_all"; "resp" ]
    @ [
        ("cache.evictions", float_of_int (Api.stats store).Service.Cache.evictions, "count");
        ( "cache.resp.redundant_misses",
          float_of_int (resp_misses - Hashtbl.length distinct_keys),
          "count" );
        ("serve.wait_ms", Util.median waits, "ms");
        ("peak_rss_mb", run.peak_rss, "MiB");
        ("host.steal_share", run.steal, "ratio");
        ("api.ms", Span.total_ms acc "api", "ms");
        ("engine.runs", float_of_int engine_runs, "count");
        ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6, "Mwords");
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
          "count" );
      ]
  in
  (metrics, spans)
