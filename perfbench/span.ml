(* In-memory spans for the traced run.  Spans are recorded from the
   benchmark's own files around calls into each layer's public
   functions; nothing in lib/ is instrumented.  A recorder belongs to
   one domain (spans nest strictly), and recorders of several domains
   are merged when the run ends. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id shared by every span of one request *)
  parent : int;  (** id of the enclosing span, -1 for a root *)
  tid : int;
  start : float;
  stop : float;
}

type t = {
  tid : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ~tid = { tid; next = tid lsl 40; stack = []; spans = [] }
let now = Unix.gettimeofday

let with_ (r : t) ~req name f =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start = now () in
  let finish () =
    r.stack <- List.tl r.stack;
    r.spans <-
      { id; name; req; parent; tid = r.tid; start; stop = now () } :: r.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans rs = List.concat_map (fun r -> List.rev r.spans) rs
let dur s = s.stop -. s.start

(* Per-name totals in ms: (inclusive, self), where self is a span's
   duration minus the durations of its direct children. *)
let totals spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let inc, sf =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (inc +. (1e3 *. dur s), sf +. (1e3 *. self)))
    spans;
  acc

let total_ms acc name =
  fst (Option.value ~default:(0., 0.) (Hashtbl.find_opt acc name))

let self_ms acc name =
  snd (Option.value ~default:(0., 0.) (Hashtbl.find_opt acc name))

(* Chrome trace_event JSON (opens in Perfetto / chrome://tracing):
   complete events in microseconds from the first span, with the
   request id and parent span in [args]. *)
let chrome_json ~meta spans =
  let module J = Analysis.Json in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", J.Float (1e6 *. (s.start -. t0)));
        ("dur", J.Float (1e6 *. dur s));
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ( "args",
          J.Obj
            [ ("req", J.Int s.req); ("id", J.Int s.id); ("parent", J.Int s.parent) ]
        );
      ]
  in
  J.Obj [ ("traceEvents", J.List (List.map ev spans)); ("metadata", J.Obj meta) ]
