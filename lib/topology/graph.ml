(* endpoint pairs are packed into one int so [find_link] (called from
   routing hot paths) neither allocates a tuple key nor pays the
   polymorphic hasher; node ids fit comfortably in 31 bits *)
let endpoint_key u v = (u lsl 31) lor v

type t = {
  node_arr : Node.t array;
  link_arr : Link.t array;
  out_adj : Link.t list array;   (* out-links per node, insertion order *)
  in_adj : Link.t list array;
  out_pos : int array;           (* link id -> position in its src's out_adj *)
  by_endpoints : (int, Link.t) Hashtbl.t;
}

module Builder = struct
  type graph = t

  type pending_link = {
    p_src : Node.id;
    p_dst : Node.id;
    p_capacity : float;
    p_delay : float;
  }

  type t = {
    mutable rev_nodes : Node.t list;
    mutable n : int;
    mutable rev_links : pending_link list;
    mutable m : int;
  }

  let create () = { rev_nodes = []; n = 0; rev_links = []; m = 0 }

  let add_node b ?(role = Node.Core) name =
    let id = b.n in
    b.rev_nodes <- Node.make ~role id name :: b.rev_nodes;
    b.n <- id + 1;
    id

  let check_endpoint b u =
    if u < 0 || u >= b.n then
      invalid_arg (Printf.sprintf "Graph.Builder: unknown node %d" u)

  let add_link b ?(capacity = 1e9) ?(delay = 1e-3) u v =
    check_endpoint b u;
    check_endpoint b v;
    if u = v then invalid_arg "Graph.Builder.add_link: self-loop";
    if capacity <= 0. then invalid_arg "Graph.Builder.add_link: capacity <= 0";
    if delay < 0. then invalid_arg "Graph.Builder.add_link: delay < 0";
    b.rev_links <-
      { p_src = u; p_dst = v; p_capacity = capacity; p_delay = delay }
      :: b.rev_links;
    b.m <- b.m + 1

  let add_edge b ?capacity ?delay u v =
    add_link b ?capacity ?delay u v;
    add_link b ?capacity ?delay v u

  let build b =
    let node_arr = Array.of_list (List.rev b.rev_nodes) in
    let n = Array.length node_arr in
    let pendings = List.rev b.rev_links in
    let link_arr =
      Array.of_list
        (List.mapi
           (fun id p ->
             Link.make ~id ~src:p.p_src ~dst:p.p_dst ~capacity:p.p_capacity
               ~delay:p.p_delay)
           pendings)
    in
    let out_adj = Array.make n [] and in_adj = Array.make n [] in
    let by_endpoints = Hashtbl.create (max 16 (Array.length link_arr)) in
    Array.iter
      (fun (l : Link.t) ->
        let k = endpoint_key l.Link.src l.Link.dst in
        if Hashtbl.mem by_endpoints k then
          invalid_arg
            (Printf.sprintf "Graph.Builder.build: duplicate link %d->%d"
               l.Link.src l.Link.dst);
        Hashtbl.add by_endpoints k l;
        out_adj.(l.Link.src) <- l :: out_adj.(l.Link.src);
        in_adj.(l.Link.dst) <- l :: in_adj.(l.Link.dst))
      link_arr;
    Array.iteri (fun i ls -> out_adj.(i) <- List.rev ls) out_adj;
    Array.iteri (fun i ls -> in_adj.(i) <- List.rev ls) in_adj;
    let out_pos = Array.make (Array.length link_arr) 0 in
    Array.iter
      (List.iteri (fun i (l : Link.t) -> out_pos.(l.Link.id) <- i))
      out_adj;
    { node_arr; link_arr; out_adj; in_adj; out_pos; by_endpoints }
end

let of_edges ?capacity ?delay n pairs =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    ignore (Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter (fun (u, v) -> Builder.add_edge b ?capacity ?delay u v) pairs;
  Builder.build b

let node_count g = Array.length g.node_arr
let link_count g = Array.length g.link_arr
let node g i = g.node_arr.(i)
let link g i = g.link_arr.(i)
let nodes g = Array.to_list g.node_arr
let links g = Array.to_list g.link_arr
let out_links g u = g.out_adj.(u)
let in_links g u = g.in_adj.(u)
let succs g u = List.map (fun (l : Link.t) -> l.Link.dst) g.out_adj.(u)
let preds g u = List.map (fun (l : Link.t) -> l.Link.src) g.in_adj.(u)
let out_degree g u = List.length g.out_adj.(u)
let out_index g id = g.out_pos.(id)

let find_link g u v = Hashtbl.find_opt g.by_endpoints (endpoint_key u v)

let reverse g (l : Link.t) = find_link g l.Link.dst l.Link.src

let undirected_links g =
  let keep (l : Link.t) =
    match reverse g l with
    | None -> true
    | Some r -> l.Link.id < r.Link.id
  in
  List.filter keep (links g)

let total_capacity g =
  Array.fold_left (fun acc (l : Link.t) -> acc +. l.Link.capacity) 0. g.link_arr

let is_connected g =
  let n = node_count g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visited = ref 1 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        let push v =
          if not seen.(v) then begin
            seen.(v) <- true;
            incr visited;
            stack := v :: !stack
          end
        in
        List.iter push (succs g u);
        List.iter push (preds g u)
    done;
    !visited = n
  end

let fold_links f g acc = Array.fold_left (fun acc l -> f l acc) acc g.link_arr
let iter_links f g = Array.iter f g.link_arr
let fold_nodes f g acc = Array.fold_left (fun acc v -> f v acc) acc g.node_arr

let pp ppf g =
  Format.fprintf ppf "graph(%d nodes, %d links, %.3g bps total)"
    (node_count g) (link_count g) (total_capacity g)
