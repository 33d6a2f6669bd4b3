(* The observability kernel. Dark by default: every recording entry
   point checks the single global [on] flag first and falls through in a
   couple of instructions when collection is off, so the instrumented
   hot paths of the decision pipeline and the runtime engine pay one
   boolean load. See DESIGN.md §6.8 for the overhead budget.

   Single-domain by design (§6.9): nothing in the program spawns a
   domain, so the flag, the metric cells and the clock clamp are plain
   refs and arrays, and a recording is a plain read-modify-write. *)

let on = ref false

let is_enabled () = !on
let enable () = on := true
let disable () = on := false

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  (* [Unix.gettimeofday] is a wall clock, not a monotonic one; spans
     must never see time run backwards, so readings are clamped to be
     non-decreasing. Tests install deterministic sources. The epoch is
     the first reading. *)
  let default_source = Unix.gettimeofday

  let source = ref default_source
  let last = ref neg_infinity
  let epoch = ref nan

  let now_us () =
    let t = Float.max (!source ()) !last in
    last := t;
    if Float.is_nan !epoch then epoch := t;
    (t -. !epoch) *. 1e6

  let set_source f =
    source := f;
    last := neg_infinity;
    epoch := nan

  let reset_source () = set_source default_source
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = int (* index into [cells] *)
  type gauge = int (* index into [cells] *)
  type histogram = int (* base offset into [hcells] *)

  type kind = Kcounter | Kgauge | Khistogram

  (* A family groups every sample sharing one metric name. Flat metrics
     are single-sample families with no labels; vecs carry a fixed label
     name list and grow one child per distinct label-value tuple. The
     child handles are the same plain ints as flat handles, so
     recording into a labeled series costs exactly a flat record. *)
  type family = {
    fname : string;
    fkind : kind;
    mutable fhelp : string;
    flabels : string list;
    mutable samples : (string list * int) list; (* reversed creation order *)
    children : (string, int) Hashtbl.t; (* joined label values -> index *)
  }

  type counter_vec = family

  (* Log-2 bucketing: bucket 0 holds samples <= 0, bucket i >= 1 holds
     [2^(i-1), 2^i - 1]. With 63-bit ints, [nbuckets - 1] = 62 already
     covers every positive value, so the top bucket doubles as the
     overflow bucket. Per-histogram layout in [hcells]: [nbuckets]
     bucket slots followed by one sum slot. *)
  let nbuckets = 63
  let hslots = nbuckets + 1

  (* Cells are plain ints in two growable arrays. Registration may swap
     a backing array for a larger one; the handles it returns are
     indices, so they stay valid across the swap. *)
  let registry : (string, family) Hashtbl.t = Hashtbl.create 64
  let order : family list ref = ref [] (* reversed registration order *)
  let cells = ref (Array.make 64 0)
  let ncells = ref 0
  let hcells = ref (Array.make (4 * hslots) 0)
  let nhist = ref 0

  let kind_name = function
    | Kcounter -> "counter"
    | Kgauge -> "gauge"
    | Khistogram -> "histogram"

  let grow a need =
    let len = Array.length !a in
    if need > len then begin
      let fresh = Array.make (max need (2 * len)) 0 in
      Array.blit !a 0 fresh 0 len;
      a := fresh
    end

  (* Fresh cells are zero: [reset] clears only the allocated prefix. *)
  let alloc_index = function
    | Kcounter | Kgauge ->
        let i = !ncells in
        grow cells (i + 1);
        ncells := i + 1;
        i
    | Khistogram ->
        let base = !nhist * hslots in
        grow hcells (base + hslots);
        incr nhist;
        base

  let family ?(help = "") ~labels name kind =
    match Hashtbl.find_opt registry name with
    | Some f ->
        if f.fkind <> kind then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name f.fkind));
        if f.flabels <> labels then
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %s already registered with labels (%s)" name
               (String.concat ", " f.flabels));
        if f.fhelp = "" then f.fhelp <- help;
        f
    | None ->
        let f =
          { fname = name; fkind = kind; fhelp = help; flabels = labels;
            samples = []; children = Hashtbl.create 4 }
        in
        Hashtbl.add registry name f;
        order := f :: !order;
        f

  let flat ?help name kind =
    let f = family ?help ~labels:[] name kind in
    match f.samples with
    | (_, i) :: _ -> i
    | [] ->
        let i = alloc_index kind in
        f.samples <- [ ([], i) ];
        i

  let counter ?help name : counter = flat ?help name Kcounter
  let gauge ?help name : gauge = flat ?help name Kgauge
  let histogram ?help name : histogram = flat ?help name Khistogram

  let counter_vec ?help name ~labels : counter_vec =
    if labels = [] then
      invalid_arg ("Obs.Metrics: vec " ^ name ^ " needs at least one label");
    family ?help ~labels name Kcounter

  (* Child interning: one cell per distinct label-value tuple,
     created on first use (idempotent — the joined values are the
     key). *)
  let counter_child (f : counter_vec) values : counter =
    if List.length values <> List.length f.flabels then
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %s takes %d label values" f.fname
           (List.length f.flabels));
    let key = String.concat "\x00" values in
    match Hashtbl.find_opt f.children key with
    | Some i -> i
    | None ->
        let i = alloc_index f.fkind in
        Hashtbl.replace f.children key i;
        f.samples <- (values, i) :: f.samples;
        i

  (* The recording fast path: one flag check, then one read-modify-write
     on the cell (indices are valid by construction of the handles). *)
  let bump a i v = Array.unsafe_set a i (Array.unsafe_get a i + v)
  let incr (c : counter) = if !on then bump !cells c 1
  let add (c : counter) v = if !on then bump !cells c v
  let set (g : gauge) v = if !on then Array.unsafe_set !cells g v

  (* Always-on recording, skipping the enabled check: for counters that
     make telemetry loss itself observable (span-ring drops) — a dark
     kernel would otherwise hide exactly the events one scrapes
     /metrics to find. *)
  let incr_always (c : counter) = bump !cells c 1
  let add_always (c : counter) v = bump !cells c v

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        b := !b + 1;
        v := !v lsr 1
      done;
      (* !b = floor(log2 v) + 1 <= 62 for 63-bit ints *)
      if !b > nbuckets - 1 then nbuckets - 1 else !b
    end

  let observe (h : histogram) v =
    if !on then begin
      let cells = !hcells in
      bump cells (h + bucket_of v) 1;
      bump cells (h + nbuckets) v
    end

  let counter_value (c : counter) = !cells.(c)
  let gauge_value (g : gauge) = !cells.(g)

  let histogram_count (h : histogram) =
    let total = ref 0 in
    for i = h to h + nbuckets - 1 do
      total := !total + !hcells.(i)
    done;
    !total

  let histogram_sum (h : histogram) = !hcells.(h + nbuckets)

  let bucket_upper i = (1 lsl i) - 1 (* bucket 0 -> 0, bucket i -> 2^i - 1 *)

  let histogram_buckets (h : histogram) =
    let last_nonempty = ref (-1) in
    for i = 0 to nbuckets - 1 do
      if !hcells.(h + i) > 0 then last_nonempty := i
    done;
    let cum = ref 0 in
    let finite =
      List.init (!last_nonempty + 1) (fun i ->
          cum := !cum + !hcells.(h + i);
          (Some (bucket_upper i), !cum))
    in
    finite @ [ (None, !cum) ]

  (* Flat lookup by name: families with labels have no unlabeled
     sample, so they report [None] here (use the child handle). *)
  let find name kinds =
    match Hashtbl.find_opt registry name with
    | Some f when List.mem f.fkind kinds && f.flabels = [] -> (
        match f.samples with (_, i) :: _ -> Some i | [] -> None)
    | _ -> None

  let value name =
    Option.map (fun i -> !cells.(i)) (find name [ Kcounter; Kgauge ])

  let histogram_stats name =
    Option.map
      (fun i -> (histogram_count i, histogram_sum i))
      (find name [ Khistogram ])

  let registered () = List.rev !order

  (* Text-format escaping per the Prometheus exposition spec: label
     values escape backslash, double-quote and newline; HELP text
     escapes backslash and newline only. *)
  let escape_label s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let escape_help s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Rendered label set: [{k="v",...}], or "" for flat samples. [extra]
     carries pre-rendered pairs (the histogram [le] bound). *)
  let labels_str lnames lvals extra =
    let pairs =
      List.map2 (fun k v -> k ^ "=\"" ^ escape_label v ^ "\"") lnames lvals
      @ extra
    in
    match pairs with
    | [] -> ""
    | ps -> "{" ^ String.concat "," ps ^ "}"

  let to_prometheus () =
    let buf = Buffer.create 1024 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iter
      (fun f ->
        let help = if f.fhelp = "" then f.fname else f.fhelp in
        p "# HELP %s %s\n" f.fname (escape_help help);
        p "# TYPE %s %s\n" f.fname (kind_name f.fkind);
        List.iter
          (fun (lvals, idx) ->
            let ls extra = labels_str f.flabels lvals extra in
            match f.fkind with
            | Kcounter | Kgauge ->
                p "%s%s %d\n" f.fname (ls []) !cells.(idx)
            | Khistogram ->
                List.iter
                  (fun (ub, cum) ->
                    let le =
                      match ub with
                      | Some ub -> string_of_int ub
                      | None -> "+Inf"
                    in
                    p "%s_bucket%s %d\n" f.fname
                      (ls [ "le=\"" ^ le ^ "\"" ])
                      cum)
                  (histogram_buckets idx);
                p "%s_sum%s %d\n" f.fname (ls []) (histogram_sum idx);
                p "%s_count%s %d\n" f.fname (ls []) (histogram_count idx))
          (List.rev f.samples))
      (registered ());
    Buffer.contents buf

  let reset () =
    Array.fill !cells 0 !ncells 0;
    Array.fill !hcells 0 (!nhist * hslots) 0
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type token = int (* generation number; 0 = none *)

  let none : token = 0

  type event = {
    name : string;
    ts_us : float;
    dur_us : float;
    depth : int;
    attrs : (string * int) list;
    minor_words : int;
    major_words : int;
    minor_collections : int;
    major_collections : int;
    heap_delta_words : int;
  }

  (* Open-span stack: frames are preallocated records mutated in place,
     so entering a span allocates nothing beyond the attrs list. *)
  type frame = {
    mutable gen : int;
    mutable fname : string;
    mutable start_us : float;
    mutable fattrs : (string * int) list;
    mutable mw0 : float;
    mutable maw0 : float;
    mutable mic0 : int;
    mutable mac0 : int;
    mutable hw0 : int;
  }

  let fresh_frame () =
    { gen = 0; fname = ""; start_us = 0.; fattrs = []; mw0 = 0.; maw0 = 0.;
      mic0 = 0; mac0 = 0; hw0 = 0 }

  let stack = ref (Array.init 16 (fun _ -> fresh_frame ()))
  let depth = ref 0
  let generation = ref 0
  let gc_probe = ref true

  let dummy_event =
    { name = ""; ts_us = 0.; dur_us = 0.; depth = 0; attrs = [];
      minor_words = 0; major_words = 0; minor_collections = 0;
      major_collections = 0; heap_delta_words = 0 }

  let ring = ref (Array.make 8192 dummy_event)
  let ring_start = ref 0
  let ring_len = ref 0
  let dropped_count = ref 0

  (* Always-on: a full ring silently forgetting spans is precisely the
     kind of loss an operator needs to see on /metrics. *)
  let m_dropped =
    Metrics.counter
      ~help:"Span events dropped because the ring buffer was full"
      "spans_dropped_total"

  let set_ring_capacity n =
    if n <= 0 then invalid_arg "Obs.Span.set_ring_capacity";
    ring := Array.make n dummy_event;
    ring_start := 0;
    ring_len := 0;
    dropped_count := 0

  let ring_capacity () = Array.length !ring
  let dropped () = !dropped_count
  let set_gc_probe b = gc_probe := b

  let push_event ev =
    let cap = Array.length !ring in
    if !ring_len < cap then begin
      !ring.((!ring_start + !ring_len) mod cap) <- ev;
      incr ring_len
    end
    else begin
      !ring.(!ring_start) <- ev;
      ring_start := (!ring_start + 1) mod cap;
      incr dropped_count;
      Metrics.incr_always m_dropped
    end

  (* One mutable stack + ring. While collection is off, [enter] returns
     the inert token (making the matching [attr]/[exit] no-ops) after a
     single flag load. *)
  let enter name : token =
    if not !on then none
    else begin
      let i = !depth in
      if i = Array.length !stack then begin
        let fresh =
          Array.init (2 * i) (fun j ->
              if j < i then !stack.(j) else fresh_frame ())
        in
        stack := fresh
      end;
      let f = !stack.(i) in
      incr generation;
      f.gen <- !generation;
      f.fname <- name;
      f.fattrs <- [];
      f.start_us <- Clock.now_us ();
      if !gc_probe then begin
        let s = Gc.quick_stat () in
        (* [quick_stat]'s [minor_words] omits words allocated since the
           last minor collection (OCaml 5), which zeroes out short
           spans; [Gc.minor_words] reads the allocation pointer too. *)
        f.mw0 <- Gc.minor_words ();
        f.maw0 <- s.Gc.major_words;
        f.mic0 <- s.Gc.minor_collections;
        f.mac0 <- s.Gc.major_collections;
        f.hw0 <- s.Gc.heap_words
      end;
      depth := i + 1;
      !generation
    end

  let find_frame tok =
    let rec scan i =
      if i < 0 then -1
      else if !stack.(i).gen = tok then i
      else scan (i - 1)
    in
    scan (!depth - 1)

  let attr tok key v =
    if tok <> none then begin
      let i = find_frame tok in
      if i >= 0 then begin
        let f = !stack.(i) in
        f.fattrs <- (key, v) :: f.fattrs
      end
    end

  let exit tok =
    if tok <> none then begin
      let target = find_frame tok in
      if target >= 0 then begin
        let now = Clock.now_us () in
        let stat =
          if !gc_probe then Some (Gc.quick_stat (), Gc.minor_words ())
          else None
        in
        (* Close still-open children innermost-first, at one timestamp. *)
        while !depth > target do
          let i = !depth - 1 in
          let f = !stack.(i) in
          let mw, maw, mic, mac, hd =
            match stat with
            | None -> (0, 0, 0, 0, 0)
            | Some (s, mwn) ->
                ( int_of_float (mwn -. f.mw0),
                  int_of_float (s.Gc.major_words -. f.maw0),
                  s.Gc.minor_collections - f.mic0,
                  s.Gc.major_collections - f.mac0,
                  s.Gc.heap_words - f.hw0 )
          in
          push_event
            { name = f.fname; ts_us = f.start_us;
              dur_us = now -. f.start_us; depth = i;
              attrs = List.rev f.fattrs; minor_words = mw; major_words = maw;
              minor_collections = mic; major_collections = mac;
              heap_delta_words = hd };
          f.gen <- 0;
          depth := i
        done
      end
    end

  let events () =
    let cap = Array.length !ring in
    List.init !ring_len (fun i -> !ring.((!ring_start + i) mod cap))

  let event_to_json ev =
    let module Json = Sl_json.Json in
    let args =
      (("depth", ev.depth) :: ev.attrs)
      @ [ ("minor_words", ev.minor_words); ("major_words", ev.major_words);
          ("minor_gcs", ev.minor_collections);
          ("major_gcs", ev.major_collections);
          ("heap_delta_words", ev.heap_delta_words) ]
    in
    Json.to_string
      (Json.Obj
         [ ("name", Json.Str ev.name); ("ph", Json.Str "X");
           ("pid", Json.int 1); ("tid", Json.int 1);
           ("ts", Json.fixed 3 ev.ts_us); ("dur", Json.fixed 3 ev.dur_us);
           ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) args))
         ])

  let write_jsonl oc =
    List.iter (fun ev -> output_string oc (event_to_json ev)) (events ())

  let to_jsonl () = String.concat "" (List.map event_to_json (events ()))

  let reset () =
    depth := 0;
    ring_start := 0;
    ring_len := 0;
    dropped_count := 0
end

let reset () =
  Metrics.reset ();
  Span.reset ()
