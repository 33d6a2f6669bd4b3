module Obs = Sl_obs.Obs

(* Kernel-level telemetry (dark unless Sl_obs is enabled): how many
   graph analyses ran and how large their working sets got. The peak
   trackers themselves are a couple of int ops per node — cheap enough
   to keep unconditional, so enabling metrics changes no traversal. *)
let m_scc_runs = Obs.Metrics.counter "digraph_scc_runs_total"
let h_scc_count = Obs.Metrics.histogram "digraph_scc_count"
let m_reach_runs = Obs.Metrics.counter "digraph_reach_runs_total"
let h_reach_frontier_peak = Obs.Metrics.histogram "digraph_reach_frontier_peak"

type t = {
  nodes : int;
  nsyms : int;
  off : int array;  (* length nodes * nsyms + 1; extent of (v, s) is
                       [off.(v * nsyms + s), off.(v * nsyms + s + 1)) *)
  succ : int array;
}

let nodes g = g.nodes
let nsyms g = g.nsyms
let nedges g = Array.length g.succ

let of_delta delta =
  let nodes = Array.length delta in
  let nsyms = if nodes = 0 then 1 else Array.length delta.(0) in
  if nodes > 0 && nsyms = 0 then invalid_arg "Digraph.of_delta: zero symbols";
  let off = Array.make ((nodes * nsyms) + 1) 0 in
  let m = ref 0 in
  Array.iteri
    (fun v row ->
      if Array.length row <> nsyms then
        invalid_arg "Digraph.of_delta: ragged rows";
      Array.iteri
        (fun s l ->
          m := !m + List.length l;
          off.((v * nsyms) + s + 1) <- !m)
        row)
    delta;
  let succ = Array.make !m 0 in
  let pos = ref 0 in
  Array.iter
    (Array.iter
       (List.iter (fun w ->
            if w < 0 || w >= nodes then
              invalid_arg "Digraph.of_delta: target out of range";
            succ.(!pos) <- w;
            incr pos)))
    delta;
  { nodes; nsyms; off; succ }

let of_successors rows = of_delta (Array.map (fun l -> [| l |]) rows)

let of_array_delta delta =
  of_delta (Array.map (Array.map (fun w -> [ w ])) delta)

let of_fn ~nodes f = of_successors (Array.init nodes f)

let iter_succ g v f =
  let lo = g.off.(v * g.nsyms) and hi = g.off.((v + 1) * g.nsyms) in
  for i = lo to hi - 1 do
    f g.succ.(i)
  done

let iter_succ_sym g v s f =
  let base = (v * g.nsyms) + s in
  for i = g.off.(base) to g.off.(base + 1) - 1 do
    f g.succ.(i)
  done

let sym_degree g v s =
  let base = (v * g.nsyms) + s in
  g.off.(base + 1) - g.off.(base)

let succs_sym g v s =
  let base = (v * g.nsyms) + s in
  let acc = ref [] in
  for i = g.off.(base + 1) - 1 downto g.off.(base) do
    acc := g.succ.(i) :: !acc
  done;
  !acc

let has_self_loop g v =
  let lo = g.off.(v * g.nsyms) and hi = g.off.((v + 1) * g.nsyms) in
  let rec scan i = i < hi && (g.succ.(i) = v || scan (i + 1)) in
  scan lo

let always _ = true

let reach_into g keep seen worklist =
  let len = ref (List.length !worklist) in
  let peak = ref !len in
  while !worklist <> [] do
    match !worklist with
    | [] -> ()
    | v :: rest ->
        worklist := rest;
        decr len;
        iter_succ g v (fun w ->
            if (not seen.(w)) && keep w then begin
              seen.(w) <- true;
              worklist := w :: !worklist;
              incr len;
              if !len > !peak then peak := !len
            end)
  done;
  Obs.Metrics.incr m_reach_runs;
  Obs.Metrics.observe h_reach_frontier_peak !peak

let reachable ?filter g sources =
  let keep = Option.value filter ~default:always in
  let seen = Array.make g.nodes false in
  let worklist = ref [] in
  List.iter
    (fun v ->
      if (not seen.(v)) && keep v then begin
        seen.(v) <- true;
        worklist := v :: !worklist
      end)
    sources;
  reach_into g keep seen worklist;
  seen

let reachable_from ?filter g seeds =
  let keep = Option.value filter ~default:always in
  let seen = Array.make g.nodes false in
  let worklist = ref [] in
  Array.iteri
    (fun v b ->
      if b && keep v then begin
        seen.(v) <- true;
        worklist := v :: !worklist
      end)
    seeds;
  reach_into g keep seen worklist;
  seen

(* Breadth-first from [src], symbols in ascending order, successors in
   storage order: nodes are discovered in the order of their least
   shortest paths (paths compare by length, then edge by edge: symbol,
   then storage position), so the first target discovered ends the
   least shortest path to any target. A parent entry is the extent
   index [v * nsyms + s] of the discovering edge. Only [filter]-nodes
   are expanded; [src] is expanded first whatever [filter] says and
   never again, and only with [nonempty] can an edge discover it. *)
let shortest_path ?filter ?(nonempty = false) g ~src ~target =
  if (not nonempty) && target src then Some []
  else begin
    let keep = Option.value filter ~default:always in
    let k = g.nsyms in
    let parent = Array.make g.nodes (-1) in
    let queue = Array.make g.nodes src in
    let head = ref 0 and tail = ref 1 in
    let found = ref (-1) in
    while !found < 0 && !head < !tail do
      let v = queue.(!head) in
      incr head;
      let base = v * k in
      for e = base to base + k - 1 do
        for i = g.off.(e) to g.off.(e + 1) - 1 do
          let w = g.succ.(i) in
          if !found < 0 && parent.(w) < 0 && (nonempty || w <> src) then begin
            parent.(w) <- e;
            if target w then found := w
            else if keep w && w <> src then begin
              queue.(!tail) <- w;
              incr tail
            end
          end
        done
      done
    done;
    if !found < 0 then None
    else begin
      let rec unwind w acc =
        let e = parent.(w) in
        let acc = (e mod k, w) :: acc in
        if e / k = src then acc else unwind (e / k) acc
      in
      Some (unwind !found [])
    end
  end

let reverse g =
  let n = g.nodes in
  let off = Array.make (n + 1) 0 in
  Array.iter (fun w -> off.(w + 1) <- off.(w + 1) + 1) g.succ;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let succ = Array.make (Array.length g.succ) 0 in
  let pos = Array.make n 0 in
  Array.blit off 0 pos 0 n;
  for v = 0 to n - 1 do
    iter_succ g v (fun w ->
        succ.(pos.(w)) <- v;
        pos.(w) <- pos.(w) + 1)
  done;
  { nodes = n; nsyms = 1; off; succ }

type scc = {
  comp : int array;
  count : int;
  comps : int list list;
  nontrivial : bool array;
}

(* Iterative Tarjan. Frames carry (node, next edge offset); a child's
   completion propagates its lowlink to the parent exactly where the
   recursive formulation would, so index assignment, component ids and
   member order all match the textbook recursion — only the call stack is
   explicit, so deep path-shaped graphs cannot overflow it. *)
let sccs ?filter g =
  let n = g.nodes in
  let keep = Option.value filter ~default:always in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let self_loop = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Array.make n (-1) in
  let comps = ref [] in
  let nontrivial_rev = ref [] in
  let ncomp = ref 0 in
  let frame_node = ref (Array.make 64 0) in
  let frame_pos = ref (Array.make 64 0) in
  let depth = ref 0 in
  let push v =
    if !depth = Array.length !frame_node then begin
      let grow a =
        let b = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      frame_node := grow !frame_node;
      frame_pos := grow !frame_pos
    end;
    !frame_node.(!depth) <- v;
    !frame_pos.(!depth) <- g.off.(v * g.nsyms);
    incr depth;
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true
  in
  let close v =
    if lowlink.(v) = index.(v) then begin
      let members = ref [] in
      let size = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        match !stack with
        | [] -> continue_ := false
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            members := w :: !members;
            incr size;
            if w = v then continue_ := false
      done;
      comps := !members :: !comps;
      nontrivial_rev := (!size > 1 || self_loop.(v)) :: !nontrivial_rev;
      incr ncomp
    end
  in
  let run root =
    push root;
    while !depth > 0 do
      let v = !frame_node.(!depth - 1) in
      let pos = !frame_pos.(!depth - 1) in
      if pos < g.off.((v + 1) * g.nsyms) then begin
        !frame_pos.(!depth - 1) <- pos + 1;
        let w = g.succ.(pos) in
        if keep w then begin
          if w = v then self_loop.(v) <- true;
          if index.(w) = -1 then push w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
      end
      else begin
        decr depth;
        close v;
        if !depth > 0 then begin
          let u = !frame_node.(!depth - 1) in
          lowlink.(u) <- min lowlink.(u) lowlink.(v)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if keep v && index.(v) = -1 then run v
  done;
  Obs.Metrics.incr m_scc_runs;
  Obs.Metrics.observe h_scc_count !ncomp;
  {
    comp;
    count = !ncomp;
    comps = !comps;
    nontrivial = Array.of_list (List.rev !nontrivial_rev);
  }

let condense g r =
  let nc = r.count in
  let mark = Array.make nc (-1) in
  let lists = Array.make nc [] in
  (* One source component at a time, so the stamp array dedups exactly. *)
  List.iter
    (fun members ->
      match members with
      | [] -> ()
      | hd :: _ ->
          let c = r.comp.(hd) in
          List.iter
            (fun v ->
              iter_succ g v (fun w ->
                  let cw = r.comp.(w) in
                  if cw >= 0 && cw <> c && mark.(cw) <> c then begin
                    mark.(cw) <- c;
                    lists.(c) <- cw :: lists.(c)
                  end))
            members)
    r.comps;
  of_successors (Array.map List.rev lists)

let good_comps ?filter g ~predicates =
  let r = sccs ?filter g in
  let good members =
    (match members with
    | [] -> false
    | hd :: _ -> r.nontrivial.(r.comp.(hd)))
    && List.for_all (fun p -> List.exists p members) predicates
  in
  (r, good)

let has_good_scc ?filter g ~predicates =
  let r, good = good_comps ?filter g ~predicates in
  List.exists good r.comps

let good_scc_members ?filter g ~predicates =
  let r, good = good_comps ?filter g ~predicates in
  let marked = Array.make g.nodes false in
  List.iter
    (fun members ->
      if good members then List.iter (fun v -> marked.(v) <- true) members)
    r.comps;
  marked
