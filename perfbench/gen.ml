(* Seeded mini-C generators.  The program under test only ever sees the
   text produced here; everything about a source that a check needs
   (shape, sizes, expected rule ids) is known by construction. *)

type shape =
  | Update_1d  (** [a[i] = a[i] + 1]: one unit-stride write per iteration *)
  | Field_acc  (** [s[i].sum += b[i]]: a struct field accumulated in place *)
  | Nest_2d
      (** [m[j][i] = m[j][i] + 1] with the inner [i] loop parallel inside
          a two-trip sequential [j] loop *)

let shapes = [| Update_1d; Field_acc; Nest_2d |]

let shape_name = function
  | Update_1d -> "update1d"
  | Field_acc -> "fieldacc"
  | Nest_2d -> "nest2d"

type src = {
  name : string;  (** report URI *)
  text : string;
  func : string;
  shape : shape;
  elem : int;  (** bytes per written element: 1, 4, 8 or 16 *)
  chunk : int;  (** [schedule(static, chunk)] *)
  trip : int;  (** parallel trip count *)
  labels : string list;  (** rule ids lint must report, sorted *)
}

let elem_sizes = [| 1; 4; 8; 16 |]

(* The rule ids lint must report for every shape: each writes a
   distinct element of at most 16 bytes per parallel iteration, so
   neighbouring iterations write disjoint bytes of one 64-byte line (a
   false-sharing candidate) and never the same bytes (no race); all
   subscripts and bounds are affine (no analysis/unknown). *)
let labels = [ "fs/line-conflict" ]

let scalar = function 1 -> "char" | 4 -> "int" | _ -> "long"

let render ~rev ~shape ~elem ~chunk ~trip ~func =
  let b = Buffer.create 512 in
  let p fmt = Printf.bprintf b fmt in
  p "#define REV %d\n" rev;
  let wide = elem = 16 in
  if wide then p "struct w16 {\n  long lo;\n  long hi;\n};\n\n";
  let ty = if wide then "struct w16" else scalar elem in
  let field = if wide then ".lo" else "" in
  let pragma =
    Printf.sprintf "#pragma omp parallel for private(i) schedule(static,%d)"
      chunk
  in
  (match shape with
  | Update_1d ->
      p "%s a[%d];\n\nvoid %s(void) {\n  int i;\n  %s\n" ty trip func pragma;
      p "  for (i = 0; i < %d; i++) {\n" trip;
      p "    a[i]%s = a[i]%s + 1;\n  }\n}\n" field field
  | Field_acc ->
      p "struct acc {\n  %s sum;\n%s};\n\n" (scalar elem)
        (if wide then "  long aux;\n" else "");
      p "struct acc s[%d];\n%s b[%d];\n\n" trip (scalar elem) trip;
      p "void %s(void) {\n  int i;\n  %s\n" func pragma;
      p "  for (i = 0; i < %d; i++) {\n" trip;
      p "    s[i].sum += b[i];\n  }\n}\n"
  | Nest_2d ->
      p "%s m[2][%d];\n\nvoid %s(void) {\n  int i;\n  int j;\n" ty trip func;
      p "  for (j = 0; j < 2; j++) {\n    %s\n" pragma;
      p "    for (i = 0; i < %d; i++) {\n" trip;
      p "      m[j][i]%s = m[j][i]%s + 1;\n    }\n  }\n}\n" field field);
  Buffer.contents b

let make ~name ~rev ~shape ~elem ~chunk ~trip =
  let func = shape_name shape in
  {
    name;
    text = render ~rev ~shape ~elem ~chunk ~trip ~func;
    func;
    shape;
    elem;
    chunk;
    trip;
    labels;
  }

(* The point at fraction [u] of the log-scale interval [lo, hi]. *)
let log_uniform ~lo ~hi u =
  int_of_float
    (Float.round (10. ** (Float.log10 lo +. (u *. (Float.log10 hi -. Float.log10 lo)))))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* lint-scaled inputs: [count] sources whose parallel trip counts are
   log-uniform on [1e5, 1e6].  Source [k] draws its trip from the [k]-th
   of [count] equal log-width bands and its chunk from the [k]-th of
   [count] bands of 1..16; its shape is [k mod 3] and its element size
   [elem_sizes.(k / 3 mod 4)], so twelve sources give every shape every
   size.  So every seed gets the same amount of work up to the jitter
   inside each band (time and the slowest input stay put from seed to
   seed) while each trip count is still a log-uniform draw.  The three
   largest sources take their bands' midpoints instead: they carry
   half of a pass's time and set its peak memory, which the runtime's
   heap growth makes a jumpy function of the exact trip and chunk.  Sources come in [k] order, smallest trip first, for the
   same reason lint-registry keeps the registry order: peak memory
   depends on it. *)
let scaled ~rng ~count =
  List.init count (fun k ->
      let shape = shapes.(k mod Array.length shapes) in
      let band () =
        let u = if k >= count - 3 then 0.5 else Random.State.float rng 1.0 in
        (float_of_int k +. u) /. float_of_int count
      in
      let trip = log_uniform ~lo:1e5 ~hi:1e6 (band ()) in
      let chunk = 1 + int_of_float (16. *. band ()) in
      let elem = elem_sizes.(k / 3 mod Array.length elem_sizes) in
      make
        ~name:(Printf.sprintf "scaled_%02d_%s.c" k (shape_name shape))
        ~rev:k ~shape ~elem ~chunk ~trip)

(* serve-mixed edit: a small nest (trip 256..4096), cheap enough that
   edits dominate by count, not by time.  Edit [rev] takes shape
   [rev mod 3], its trip from log-width band [rev mod 8] of 8, its
   element size from [rev / 8] and its chunk from [rev / 24], so every
   seed's stream carries the same mix; [rev] also makes every edit a
   new digest. *)
let small ~rng ~rev =
  let shape = shapes.(rev mod Array.length shapes) in
  let elem = elem_sizes.(rev / 8 mod Array.length elem_sizes) in
  let chunk = 1 + (rev / 24 mod 16) in
  let u = (float_of_int (rev mod 8) +. Random.State.float rng 1.0) /. 8. in
  let trip = log_uniform ~lo:256. ~hi:4096. u in
  make ~name:(Printf.sprintf "edit_%05d.c" rev) ~rev ~shape ~elem ~chunk ~trip
