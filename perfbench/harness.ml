(* The OCaml half of the loclab benchmark.  run.py drives the program
   through its command line; this executable does what needs the
   libraries from outside the program's processes:

   - [check-reproduce]: property checks on every artifact of a filled
     store, plus one seeded cell re-simulated through the naive
     reference cache simulator (test/oracle.ml) and Vmsim.Naive_lru;
   - [serve-load]: the closed-loop serve-mixed client (its own process,
     two connections), with reply checks and the /status stage scrape;
   - [shift-capture]: the seeded trace-import captures, made from one
     recorded capture;
   - [check-import]: record counts and a sequential re-simulation of
     each imported capture;
   - [ledger]: the per-layer cost ledger, timing the calls into each
     layer's public functions;
   - [info]: machine facts the OCaml runtime knows.

   Each subcommand prints one JSON object on stdout; diagnostics go to
   stderr.  Usage: harness.exe SUBCOMMAND [--key value]... *)

module J = Metrics.Export

(* ---- the workloads' fixed inputs ------------------------------------ *)

(* Defined once, here; [info] echoes them and run.py reads them from
   there (README.md, "Workloads"). *)
let reproduce_scale = 0.005
let serve_clients = 2
let serve_cold_every = 20  (* one cold request in every 20 *)
let serve_warm_experiment = "fig1"  (* its cells are the 25-cell paper grid *)
let serve_warm_scale = 0.005
let serve_cold_program, serve_cold_allocator, serve_cold_scale =
  ("espresso", "bsd", 0.013)
let ledger_scale = 0.02
let ledger_fill_scale = 0.005

let config_json =
  J.Obj
    [ ("reproduce_scale", J.Float reproduce_scale);
      ("serve_clients", J.Int serve_clients);
      ("serve_cold_every", J.Int serve_cold_every);
      ("serve_warm_experiment", J.String serve_warm_experiment);
      ("serve_warm_scale", J.Float serve_warm_scale);
      ("serve_cold_cell",
        J.String (serve_cold_program ^ "/" ^ serve_cold_allocator));
      ("serve_cold_scale", J.Float serve_cold_scale);
      ("ledger_scale", J.Float ledger_scale);
      ("ledger_fill_scale", J.Float ledger_fill_scale) ]

(* ---- arguments and small utilities --------------------------------- *)

let args =
  let tbl = Hashtbl.create 16 in
  let rec go i =
    if i + 1 < Array.length Sys.argv then begin
      let k = Sys.argv.(i) in
      if String.length k > 2 && String.sub k 0 2 = "--" then begin
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2))
          Sys.argv.(i + 1);
        go (i + 2)
      end
      else go (i + 1)
    end
  in
  go 2;
  tbl

let arg key =
  match Hashtbl.find_opt args key with
  | Some v -> v
  | None ->
      Printf.eprintf "harness: missing --%s\n" key;
      exit 2

let arg_int key = int_of_string (arg key)
let arg_float key = float_of_string (arg key)
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let print_json j = print_endline (J.to_string j)
let num f = J.Float f

(* Failed checks accumulate here; every subcommand reports them. *)
let errors : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun s -> if List.length !errors < 20 then errors := s :: !errors)
    fmt

let errors_json () = J.List (List.rev_map (fun s -> J.String s) !errors)

(* The grid cells of every experiment, deduplicated and sorted. *)
let all_cells () =
  List.sort_uniq compare
    (List.concat_map (fun e -> e.Core.Experiment.cells) Core.Experiment.all)

let cell_digest ~scale (program, allocator) =
  let profile = Workload.Programs.find program in
  Core.Artifact.digest ~program ~allocator ~scale
    ~seed:profile.Workload.Profile.seed

let stored_artifact store digest =
  match Store.find store ~digest with
  | Store.Hit payload -> (
      match Core.Artifact.decode payload with
      | Ok a -> Some (payload, a)
      | Error e ->
          fail "%s: undecodable artifact: %s" digest e;
          None)
  | Store.Miss ->
      fail "%s: not in the store" digest;
      None
  | Store.Corrupt e ->
      fail "%s: corrupt in the store: %s" digest e;
      None

let iter_events buffer f =
  Memsim.Trace_buffer.iter_chunks
    (fun (b : Memsim.Event.Batch.t) ->
      for i = 0 to b.len - 1 do
        f b.addrs.(i) b.metas.(i)
      done)
    buffer

(* ---- properties every artifact must have --------------------------- *)

let is_paper_dm (c : Cachesim.Config.t) =
  c.associativity = 1 && c.block_bytes = 32
  && Cachesim.Policy.is_lru c.policy

let check_properties (a : Core.Artifact.t) =
  let m = a.meta in
  let who = Printf.sprintf "%s/%s@%g" m.program m.allocator m.scale in
  let refs = a.summary.data_refs in
  let check_stats name (st : Cachesim.Stats.t) ~expect_accesses =
    if Cachesim.Stats.hits st + st.misses <> st.accesses then
      fail "%s %s: hits + misses <> accesses" who name;
    (match expect_accesses with
    | Some n when st.accesses <> n ->
        fail "%s %s: %d accesses, expected %d" who name st.accesses n
    | _ -> ());
    if st.read_accesses + st.write_accesses <> st.accesses then
      fail "%s %s: reads + writes <> accesses" who name;
    if st.read_misses + st.write_misses <> st.misses then
      fail "%s %s: read + write misses <> misses" who name;
    if st.app_accesses + st.malloc_accesses + st.free_accesses <> st.accesses
    then fail "%s %s: per-source accesses do not add up" who name;
    if st.cold_misses > st.misses || st.misses > st.accesses then
      fail "%s %s: cold <= misses <= accesses violated" who name
  in
  List.iter
    (fun ((c : Cachesim.Config.t), st) ->
      check_stats c.name st ~expect_accesses:(Some refs))
    a.caches;
  (* Inclusion: on the direct-mapped sweep a bigger cache never misses
     more. *)
  let dm =
    List.filter (fun ((c : Cachesim.Config.t), _) -> is_paper_dm c) a.caches
    |> List.sort (fun ((x : Cachesim.Config.t), _) (y, _) ->
           compare x.size_bytes y.size_bytes)
  in
  if List.length dm < 2 then fail "%s: no direct-mapped sweep" who;
  ignore
    (List.fold_left
       (fun prev ((c : Cachesim.Config.t), (st : Cachesim.Stats.t)) ->
         (match prev with
         | Some (pname, pm) when st.misses > pm ->
             fail "%s: %s misses %d > %s misses %d" who c.name st.misses
               pname pm
         | _ -> ());
         Some (c.name, st.misses))
       None dm);
  (* The hierarchy: L1 sees every reference, each outer level exactly
     the misses of the level inside it. *)
  (match a.hierarchy with
  | [] -> fail "%s: empty hierarchy" who
  | (_, l1) :: _ ->
      check_stats "L1" l1 ~expect_accesses:(Some refs);
      ignore
        (List.fold_left
           (fun (inner : Cachesim.Stats.t option) (_, (st : Cachesim.Stats.t)) ->
             (match inner with
             | Some i when st.accesses <> i.misses ->
                 fail "%s: level accesses %d <> inner misses %d" who
                   st.accesses i.misses
             | _ -> ());
             Some st)
           None a.hierarchy));
  (* The fault curve: never rises with memory, and at the footprint only
     the cold touches of distinct pages fault. *)
  let fc = a.fault_curve in
  if fc.references <> refs then
    fail "%s: fault curve saw %d references, %d data refs" who fc.references
      refs;
  let pages = Vmsim.Fault_curve.distinct_pages fc in
  let faults p =
    Vmsim.Fault_curve.faults fc ~memory_bytes:(p * fc.page_bytes)
  in
  let prev = ref max_int in
  for p = 1 to pages + 1 do
    let f = faults p in
    if f > !prev then fail "%s: faults rise at %d pages" who p;
    prev := f
  done;
  if faults pages <> pages then
    fail "%s: %d faults at the footprint, %d distinct pages" who
      (faults pages) pages

(* ---- check-reproduce ------------------------------------------------ *)

(* Re-simulate one cell's trace through the naive reference simulator
   and the quadratic LRU stack, and compare with the stored artifact. *)
let oracle_check store ~scale ((program, allocator) as cell) =
  let digest = cell_digest ~scale cell in
  match stored_artifact store digest with
  | None -> 0
  | Some (_, art) ->
      let profile = Workload.Programs.find program in
      let buffer = Memsim.Trace_buffer.create () in
      let checksum = Memsim.Sink.Checksum.create () in
      let heap = Allocators.Heap.create () in
      let alloc =
        Core.Runs.build_allocator ~profile_key:program ~allocator heap
      in
      ignore
        (Workload.Driver.run_with
           ~sink:
             (Memsim.Sink.fanout
                [ Memsim.Trace_buffer.sink buffer;
                  Memsim.Sink.Checksum.sink checksum ])
           ~scale ~profile ~heap ~alloc ());
      if Memsim.Sink.Checksum.value checksum <> art.meta.trace_checksum then
        fail "oracle %s/%s: trace checksum differs from the artifact's"
          program allocator;
      let cfg = Cachesim.Config.make (16 * 1024) in
      let oracle = Testkit.Oracle.create cfg in
      let naive = Vmsim.Naive_lru.create () in
      let page_bytes = art.fault_curve.page_bytes in
      let last_page = ref (-1) in
      iter_events buffer (fun addr meta ->
          Testkit.Oracle.access oracle
            (Memsim.Event.Packed.to_event ~addr ~meta);
          let size = Memsim.Event.Packed.size meta in
          for page = addr / page_bytes to (addr + size - 1) / page_bytes do
            (* A repeat of the most recent page has stack distance 1,
               a hit at every memory size: only its first touch is
               replayed through the stack. *)
            if page <> !last_page then begin
              ignore (Vmsim.Naive_lru.access naive page);
              last_page := page
            end
          done);
      (match
         List.find_opt
           (fun ((c : Cachesim.Config.t), _) ->
             c.size_bytes = cfg.size_bytes && is_paper_dm c)
           art.caches
       with
      | None -> fail "oracle: artifact has no 16K direct-mapped cache"
      | Some (_, st) ->
          if st <> Testkit.Oracle.stats oracle then
            fail "oracle %s/%s: 16K direct-mapped stats differ (%d/%d vs %d/%d)"
              program allocator st.misses st.accesses
              (Testkit.Oracle.stats oracle).misses
              (Testkit.Oracle.stats oracle).accesses);
      let pages = Vmsim.Fault_curve.distinct_pages art.fault_curve in
      let sizes =
        List.sort_uniq compare
          (pages :: (pages + 1)
          :: List.filter (fun p -> p <= pages)
               [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ])
      in
      List.iter
        (fun p ->
          let want = Vmsim.Naive_lru.misses_at naive ~capacity:p in
          let got =
            Vmsim.Fault_curve.faults art.fault_curve
              ~memory_bytes:(p * page_bytes)
          in
          if want <> got then
            fail "oracle %s/%s: %d faults at %d pages, naive LRU says %d"
              program allocator got p want)
        sizes;
      Memsim.Trace_buffer.length buffer

let check_reproduce () =
  let store = Store.open_ (arg "store") in
  let scale = reproduce_scale in
  let seed = arg_int "seed" in
  let cells = Array.of_list (all_cells ()) in
  let checked = ref 0 in
  Array.iter
    (fun cell ->
      match stored_artifact store (cell_digest ~scale cell) with
      | None -> ()
      | Some (_, a) ->
          incr checked;
          check_properties a)
    cells;
  let stored = List.length (Store.ls store) in
  if stored <> Array.length cells then
    fail "store holds %d cells, the experiments name %d" stored
      (Array.length cells);
  let cell = cells.(abs seed mod Array.length cells) in
  let oracle_events = oracle_check store ~scale cell in
  print_json
    (J.Obj
       [ ("artifacts_checked", J.Int !checked);
         ("oracle_cell", J.String (fst cell ^ "/" ^ snd cell));
         ("oracle_events", J.Int oracle_events);
         ("errors", errors_json ()) ])

(* ---- serve-load ----------------------------------------------------- *)

type outcome = {
  cold : bool;
  program : string;
  allocator : string;
  scale : float;
  latency_s : float;
  reply : (string * string, string) result;  (* digest, artifact bytes *)
}

let stage_names =
  [ "read_frame"; "decode"; "store_lookup"; "simulate"; "encode";
    "write_reply" ]

let scrape_stages addr =
  match Serve.Client.http_get ~timeout:10.0 addr "/status" with
  | Error e ->
      fail "/status: %s" (Serve.Client.error_to_string e);
      []
  | Ok body -> (
      match J.of_string body with
      | Error e ->
          fail "/status: unparsable JSON: %s" e;
          []
      | Ok status -> (
          match Option.bind (J.member "stages" status) J.to_list_opt with
          | None ->
              fail "/status: no stages";
              []
          | Some stages ->
              List.filter_map
                (fun s ->
                  let get k f = Option.bind (J.member k s) f in
                  match
                    ( get "stage" J.to_string_opt,
                      get "p50_us" J.to_float_opt,
                      get "p99_us" J.to_float_opt )
                  with
                  | Some n, Some p50, Some p99 -> Some (n, (p50, p99))
                  | _ -> None)
                stages))

let serve_load () =
  let addr =
    match Serve.Protocol.addr_of_string (arg "addr") with
    | Ok a -> a
    | Error e -> failwith e
  in
  let seconds = arg_float "seconds" in
  let seed = arg_int "seed" in
  let store = Store.open_ (arg "store") in
  let clients = serve_clients and round = serve_cold_every in
  let warm =
    Array.of_list (Core.Experiment.find serve_warm_experiment).cells
  in
  let rng = Random.State.make [| seed |] in
  (* A seeded order over the warm cells, walked round-robin. *)
  for i = Array.length warm - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = warm.(i) in
    warm.(i) <- warm.(j);
    warm.(j) <- t
  done;
  (* Cold coordinates: one cell per cold request, unique in the run.
     The scale moves by 1e-12 per request on top of a seeded offset
     below 1e-6: the digest sees every bit of the scale, while the
     simulated work only changes when the step count (steps x scale,
     truncated) does, which for espresso at 0.013 takes 1.7e-5. *)
  let cold_base =
    serve_cold_scale +. (float_of_int (abs seed mod 1000) *. 1e-9)
  in
  let cold_counter = Atomic.make 0 in
  let deadline = now () +. seconds in
  let per_client = Array.make clients [] in
  let client ci =
    Serve.Client.with_connection ~timeout:60.0 addr (fun conn ->
        let acc = ref [] in
        let r = ref 0 in
        (* Whole rounds of [round] requests: [round - 1] warm, one cold. *)
        while !r mod round <> 0 || now () < deadline do
          let cold = !r mod round = round - 1 in
          let program, allocator, scale =
            if cold then
              let k = Atomic.fetch_and_add cold_counter 1 in
              ( serve_cold_program,
                serve_cold_allocator,
                cold_base +. (float_of_int k *. 1e-12) )
            else
              let p, a = warm.(((ci * 7) + !r) mod Array.length warm) in
              (p, a, serve_warm_scale)
          in
          let req = Serve.Protocol.Run_cell { program; allocator; scale } in
          let t0 = now () in
          let res = Serve.Client.request conn req in
          let latency_s = now () -. t0 in
          let reply =
            match res with
            | Ok (Serve.Protocol.Cell_ok { digest; artifact }) ->
                Ok (digest, artifact)
            | Ok (Serve.Protocol.Error { message; _ }) -> Error message
            | Ok _ -> Error "unexpected response"
            | Error e -> Error (Serve.Client.error_to_string e)
          in
          acc := { cold; program; allocator; scale; latency_s; reply } :: !acc;
          incr r
        done;
        per_client.(ci) <- !acc)
  in
  let t0 = now () in
  let threads = List.init clients (Thread.create client) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let stages = scrape_stages addr in
  let all = List.concat (Array.to_list per_client) in
  let attempted = List.length all in
  let failed = ref 0 in
  (* Checks, after the timed loop. *)
  List.iter
    (fun o ->
      match o.reply with
      | Error e ->
          incr failed;
          fail "%s/%s@%h: %s" o.program o.allocator o.scale e
      | Ok (digest, bytes) -> (
          let want = cell_digest ~scale:o.scale (o.program, o.allocator) in
          if digest <> want then
            fail "%s/%s@%h: reply digest %s, expected %s" o.program
              o.allocator o.scale digest want;
          if not o.cold then (
            match Store.find store ~digest:want with
            | Store.Hit payload ->
                if payload <> bytes then
                  fail "%s/%s: warm reply differs from the stored blob"
                    o.program o.allocator
            | _ -> fail "%s/%s: warm cell missing from the store" o.program
                     o.allocator)
          else
            match Core.Artifact.decode bytes with
            | Error e -> fail "cold %h: undecodable: %s" o.scale e
            | Ok a ->
                if a.meta.program <> o.program || a.meta.scale <> o.scale then
                  fail "cold %h: artifact names other coordinates" o.scale;
                check_properties a))
    all;
  let lat cold =
    List.filter_map
      (fun o -> if o.cold = cold && Result.is_ok o.reply then Some o.latency_s else None)
      all
    |> Array.of_list
  in
  let warm_l = lat false and cold_l = lat true in
  let warm_mean =
    Array.fold_left ( +. ) 0. warm_l /. float_of_int (Array.length warm_l)
  in
  Array.sort compare warm_l;
  Array.sort compare cold_l;
  let stage_fields =
    List.concat_map
      (fun name ->
        let p50, p99 =
          match List.assoc_opt name stages with
          | Some v -> v
          | None ->
              fail "/status: no %s stage" name;
              (nan, nan)
        in
        [ (name ^ ".p50_us", num p50); (name ^ ".p99_us", num p99) ])
      stage_names
  in
  print_json
    (J.Obj
       [ ("attempted", J.Int attempted);
         ("failed", J.Int !failed);
         ("warm_requests", J.Int (Array.length warm_l));
         ("cold_requests", J.Int (Array.length cold_l));
         ("wall_s", num wall);
         ("req_per_s", num (float_of_int attempted /. wall));
         ("warm_p50_us", num (percentile warm_l 0.5 *. 1e6));
         ("warm_p99_us", num (percentile warm_l 0.99 *. 1e6));
         ("warm_mean_us", num (warm_mean *. 1e6));
         ("cold_p50_ms", num (percentile cold_l 0.5 *. 1e3));
         ("stages", J.Obj stage_fields);
         ("errors", errors_json ()) ])

(* ---- check-import --------------------------------------------------- *)

(* Count the records of a capture without the program's readers. *)
let count_text data =
  List.fold_left
    (fun n line ->
      let line = String.trim line in
      if line = "" then n
      else
        match line.[0] with
        | 'R' | 'r' | 'W' | 'w' -> n + 1
        | _ ->
            fail "text capture: unexpected line %S" line;
            n)
    0
    (String.split_on_char '\n' data)

(* Binary: an 8-byte magic, then per record a flags byte, a size varint
   when the size field (bits 3-7) is 31, and an address-delta varint. *)
let count_binary data =
  let len = String.length data in
  let pos = ref 8 and n = ref 0 in
  let skip_varint () =
    while Char.code data.[!pos] land 0x80 <> 0 do
      incr pos
    done;
    incr pos
  in
  (try
     while !pos < len do
       let flags = Char.code data.[!pos] in
       incr pos;
       if flags lsr 3 = 31 then skip_varint ();
       skip_varint ();
       incr n
     done
   with Invalid_argument _ -> fail "binary capture: truncated record");
  !n

let check_one_import ~label ~format ~file ~store ~digest ~events =
  let data = Memsim.Trace.slurp file in
  let counted =
    match format with
    | Memsim.Trace.Source.Text -> count_text data
    | _ -> count_binary data
  in
  if counted <> events then
    fail "%s: loclab imported %d events, the capture holds %d records" label
      events counted;
  match stored_artifact (Store.open_ store) digest with
  | None -> ()
  | Some (_, art) ->
      if art.summary.data_refs <> counted then
        fail "%s: artifact counts %d references, the capture %d" label
          art.summary.data_refs counted;
      check_properties art;
      (* A sequential replay of the same capture, no set sharding. *)
      let multi = Cachesim.Multi.create (List.map fst art.caches) in
      let hier = Cachesim.Hierarchy.create_levels (List.map fst art.hierarchy) in
      let pages = Vmsim.Page_sim.create () in
      ignore
        (Memsim.Trace.read format data
           (Memsim.Sink.fanout
              [ Cachesim.Multi.sink multi;
                Cachesim.Hierarchy.sink hier;
                Vmsim.Page_sim.sink pages ]));
      List.iter2
        (fun ((c : Cachesim.Config.t), st) (_, st') ->
          if st <> st' then fail "%s: %s differs from a sequential replay" label c.name)
        art.caches (Cachesim.Multi.results multi);
      if List.map snd art.hierarchy <> List.map snd (Cachesim.Hierarchy.results hier)
      then fail "%s: hierarchy differs from a sequential replay" label;
      if not (Vmsim.Fault_curve.equal art.fault_curve (Vmsim.Page_sim.curve pages))
      then fail "%s: fault curve differs from a sequential replay" label

let check_import () =
  List.iter
    (fun (label, format) ->
      check_one_import ~label ~format ~file:(arg (label ^ "-file"))
        ~store:(arg (label ^ "-store")) ~digest:(arg (label ^ "-digest"))
        ~events:(arg_int (label ^ "-events")))
    [ ("text", Memsim.Trace.Source.Text); ("binary", Memsim.Trace.Source.Binary) ];
  print_json (J.Obj [ ("errors", errors_json ()) ])

(* ---- shift-capture -------------------------------------------------- *)

(* Move every address of a binary capture up by [offset] and write it as
   binary and as text.  An offset that is a multiple of 16 MB keeps every
   cache set and page of the standard sweep in place, so the simulated
   work is the same while the capture (and its cell) is a new one; an
   offset in [2^36, 2^37) gives every text address the same length. *)
let shift_capture () =
  let data = Memsim.Trace.slurp (arg "in") in
  let offset = arg_int "offset" in
  let shifted (sink : Memsim.Sink.t) =
    let out = Memsim.Event.Batch.create () in
    Memsim.Sink.make_packed ~emit_packed_batch:(fun (b : Memsim.Event.Batch.t) ->
        Memsim.Event.Batch.clear out;
        for i = 0 to b.len - 1 do
          if out.len = Memsim.Event.Batch.capacity out then begin
            sink.emit_packed_batch out;
            Memsim.Event.Batch.clear out
          end;
          Memsim.Event.Batch.push out ~addr:(b.addrs.(i) + offset) ~meta:b.metas.(i)
        done;
        if out.len > 0 then sink.emit_packed_batch out)
  in
  List.iter
    (fun (fmt, path) ->
      let encoded =
        Memsim.Trace.write fmt (fun sink ->
            ignore (Memsim.Trace.read Memsim.Trace.Source.Binary data (shifted sink)))
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc encoded))
    [ (Memsim.Trace.Source.Binary, arg "binary");
      (Memsim.Trace.Source.Text, arg "text") ];
  print_json (J.Obj [ ("errors", errors_json ()) ])

(* ---- ledger --------------------------------------------------------- *)

(* A sink that charges the time spent inside [s] to [acc] and counts
   its calls in [calls]. *)
let timed calls acc (s : Memsim.Sink.t) =
  Memsim.Sink.make_packed ~emit_packed_batch:(fun b ->
      let t0 = now () in
      s.Memsim.Sink.emit_packed_batch b;
      acc := !acc +. (now () -. t0);
      incr calls)

let paper_hierarchy () =
  Cachesim.Hierarchy.create_levels
    [ Cachesim.Config.make (16 * 1024); Cachesim.Config.make (256 * 1024) ]

let lru_family, unread =
  List.partition
    (fun (c : Cachesim.Config.t) -> Cachesim.Policy.is_lru c.policy)
    Core.Runs.standard_configs

let run_cell ~scale ~sink (program, allocator) =
  let heap = Allocators.Heap.create () in
  let alloc = Core.Runs.build_allocator ~profile_key:program ~allocator heap in
  Workload.Driver.run_with ~sink ~scale
    ~profile:(Workload.Programs.find program) ~heap ~alloc ()

type cell_ledger = {
  events : int;
  gen_s : float;
  plain_s : float;  (* the cell as Core.Runs simulates it, untimed layers *)
  traced_s : float;  (* the same cell with every consumer call timed *)
  timed_calls : int;  (* consumer calls the timers wrapped in one pass *)
  multi_s : float;
  hier_s : float;
  pages_s : float;
  checksum_s : float;
  lru_s : float;
  unread_s : float;
  cpu_s : float;
  buffer : Memsim.Trace_buffer.t;
  art : Core.Artifact.t;
}

let reps = 3

(* Median wall time of [reps] runs of [f]. *)
let median_time f = median (List.init reps (fun _ -> snd (time f)))

(* What the timers add to one consumer call: a timed call into a sink
   that does nothing.  Times the number of timed calls, it is the
   ledger's own cost, measured apart from the noise between two passes
   over a cell. *)
let timer_cost_s =
  lazy
    (let n = 200_000 in
     let s = timed (ref 0) (ref 0.) Memsim.Sink.null in
     let b = Memsim.Event.Batch.create () in
     median_time (fun () ->
         for _ = 1 to n do
           s.Memsim.Sink.emit_packed_batch b
         done)
     /. float_of_int n)

let ledger_cell ~scale ((program, allocator) as cell) =
  let gen_s =
    median_time (fun () -> ignore (run_cell ~scale ~sink:Memsim.Sink.null cell))
  in
  let plain = ref [] and art = ref None in
  let traced = ref [] and multi = ref [] and hier = ref [] in
  let pages = ref [] and chk = ref [] in
  let events = ref 0 and calls = ref 0 in
  (* Untimed and timed passes alternate, so neither gets the warmer
     half of the measurement. *)
  for _ = 1 to reps do
    let want, dt =
      time (fun () ->
          Core.Runs.get (Core.Runs.create ~scale ()) ~profile:program ~allocator)
    in
    plain := dt :: !plain;
    let tm = ref 0. and th = ref 0. and tp = ref 0. and tc = ref 0. in
    let m = Cachesim.Multi.create Core.Runs.standard_configs in
    let h = paper_hierarchy () in
    let p = Vmsim.Page_sim.create () in
    let c = Memsim.Sink.Checksum.create () in
    calls := 0;
    let sink =
      Memsim.Sink.fanout
        [ timed calls tm (Cachesim.Multi.sink m);
          timed calls th (Cachesim.Hierarchy.sink h);
          timed calls tp (Vmsim.Page_sim.sink p);
          timed calls tc (Memsim.Sink.Checksum.sink c) ]
    in
    let result, dt = time (fun () -> run_cell ~scale ~sink cell) in
    events := result.Workload.Driver.data_refs;
    (* The timed cell must be the cell: same artifact as Core.Runs. *)
    let again =
      Core.Artifact.of_run ~program ~allocator ~scale
        ~trace_checksum:(Memsim.Sink.Checksum.value c) ~result
        ~caches:(Cachesim.Multi.results m)
        ~hierarchy:(Cachesim.Hierarchy.results h)
        ~fault_curve:(Vmsim.Page_sim.curve p) ()
    in
    if not (Core.Artifact.equal again want) then
      fail "ledger %s/%s: timed cell differs from Core.Runs" program allocator;
    art := Some want;
    traced := dt :: !traced;
    multi := !tm :: !multi;
    hier := !th :: !hier;
    pages := !tp :: !pages;
    chk := !tc :: !chk
  done;
  let buffer = Memsim.Trace_buffer.create () in
  ignore (run_cell ~scale ~sink:(Memsim.Trace_buffer.sink buffer) cell);
  let replay configs_sink =
    median
      (List.init reps (fun _ ->
           let sink = configs_sink () in
           snd (time (fun () -> Memsim.Trace_buffer.replay buffer sink))))
  in
  let lru_s = replay (fun () -> Cachesim.Multi.sink (Cachesim.Multi.create lru_family)) in
  let unread_s = replay (fun () -> Cachesim.Multi.sink (Cachesim.Multi.create unread)) in
  let cpu_s =
    replay (fun () ->
        Memsim.Sink.fanout
          (List.map
             (fun cpu -> Cachesim.Hierarchy.sink (Cachesim.Cpu.hierarchy cpu))
             Cachesim.Cpu.all))
  in
  { events = !events;
    gen_s;
    plain_s = median !plain;
    traced_s = median !traced;
    timed_calls = !calls;
    multi_s = median !multi;
    hier_s = median !hier;
    pages_s = median !pages;
    checksum_s = median !chk;
    lru_s;
    unread_s;
    cpu_s;
    buffer;
    art = Option.get !art }

(* Steady-state churn: four mixed-size mallocs and four frees per
   iteration on a primed heap; ns per malloc or free call.  It must stay
   the kernel of bench/main.ml's [allocator_kernel] (same priming, same
   sizes, same order), so the two measure the same thing. *)
let churn_ns key =
  let heap = Allocators.Heap.create () in
  let alloc = Allocators.Registry.build key heap in
  let warm =
    List.init 256 (fun i ->
        Allocators.Allocator.malloc alloc (8 + (8 * (i mod 16))))
  in
  List.iter (Allocators.Allocator.free alloc) warm;
  let iters = 20_000 in
  let elapsed =
    median_time (fun () ->
        for _ = 1 to iters do
          let a = Allocators.Allocator.malloc alloc 24 in
          let b = Allocators.Allocator.malloc alloc 40 in
          let c = Allocators.Allocator.malloc alloc 128 in
          let d = Allocators.Allocator.malloc alloc 1024 in
          Allocators.Allocator.free alloc b;
          Allocators.Allocator.free alloc a;
          Allocators.Allocator.free alloc d;
          Allocators.Allocator.free alloc c
        done)
  in
  elapsed /. float_of_int (iters * 8) *. 1e9

let per_op n f =
  median_time (fun () -> for i = 1 to n do f i done) /. float_of_int n

let ledger () =
  let scale = ledger_scale and fill_scale = ledger_fill_scale in
  let work = arg "work" in
  let cells = [ ("gs-large", "quickfit"); ("espresso", "firstfit") ] in
  let ls = List.map (ledger_cell ~scale) cells in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0. ls in
  let events = float_of_int (List.fold_left (fun acc c -> acc + c.events) 0 ls) in
  let ns f = sum f /. events *. 1e9 in
  let attributed c = c.gen_s +. c.multi_s +. c.hier_s +. c.pages_s +. c.checksum_s in
  let per_cell =
    List.map2
      (fun (p, a) c ->
        J.Obj
          [ ("cell", J.String (p ^ "/" ^ a));
            ("events", J.Int c.events);
            ("cell_s", num c.plain_s);
            ("traced_cell_s", num c.traced_s);
            ("timed_calls", J.Int c.timed_calls);
            ("gen_ns", num (c.gen_s /. float_of_int c.events *. 1e9));
            ("multi_ns", num (c.multi_s /. float_of_int c.events *. 1e9));
            ("multi_lru_ns", num (c.lru_s /. float_of_int c.events *. 1e9));
            ("multi_unread_ns", num (c.unread_s /. float_of_int c.events *. 1e9));
            ("hierarchy_ns", num (c.hier_s /. float_of_int c.events *. 1e9));
            ("page_sim_ns", num (c.pages_s /. float_of_int c.events *. 1e9));
            ("checksum_ns", num (c.checksum_s /. float_of_int c.events *. 1e9));
            ("unattributed_share", num (1. -. (attributed c /. c.traced_s))) ])
      cells ls
  in
  let first = List.hd ls in
  (* Codec and store, on the first ledger cell's artifact. *)
  let blob = Core.Artifact.encode first.art in
  let encode_us = per_op 500 (fun _ -> ignore (Core.Artifact.encode first.art)) *. 1e6 in
  let decode_us = per_op 500 (fun _ -> ignore (Core.Artifact.decode blob)) *. 1e6 in
  let store_dir = Filename.concat work "ledger-store" in
  let store = Store.open_ store_dir in
  let key i = Digest.to_hex (Digest.string (string_of_int i)) in
  let n_store = 200 in
  let put_us = ref [] and find_us = ref [] in
  for r = 1 to reps do
    let digest i = key ((r * n_store) + i) in
    put_us :=
      (per_op n_store (fun i -> Store.put store ~digest:(digest i) blob) *. 1e6)
      :: !put_us;
    find_us :=
      (per_op n_store (fun i ->
           match Store.find store ~digest:(digest i) with
           | Store.Hit _ -> ()
           | _ -> fail "ledger store: lost a blob")
      *. 1e6)
      :: !find_us
  done;
  let bytes_per_cell =
    (Unix.stat (Filename.concat store_dir (key (n_store + 1) ^ ".art"))).Unix.st_size
  in
  (* The three experiments that simulate outside Core.Runs, rendered at
     the ledger scale. *)
  let ctx = Core.Context.create ~scale () in
  let render id =
    let e = Core.Experiment.find id in
    (id, snd (time (fun () -> ignore (e.Core.Experiment.render ctx))))
  in
  let renders = List.map render [ "tabcpu"; "abl-flush"; "abl-lifetime" ] in
  (* Grid fill parallelism: the paper grid at a small scale, 1 and 2
     worker domains. *)
  let fill jobs =
    let runs = Core.Runs.create ~scale:fill_scale ~jobs () in
    snd (time (fun () -> Core.Runs.prefetch runs Core.Experiment.(find "fig1").cells))
  in
  let fill1 = fill 1 and fill2 = fill 2 in
  (* Trace readers and the set-sharded replay, on the first cell's
     capture. *)
  let encode fmt = Memsim.Trace.write fmt (Memsim.Trace_buffer.replay first.buffer) in
  let text = encode Memsim.Trace.Source.Text in
  let binary = encode Memsim.Trace.Source.Binary in
  let fevents = float_of_int first.events in
  let read fmt data =
    median_time (fun () -> ignore (Memsim.Trace.read fmt data Memsim.Sink.null))
    /. fevents *. 1e9
  in
  let text_ns = read Memsim.Trace.Source.Text text in
  let binary_ns = read Memsim.Trace.Source.Binary binary in
  let shard_family =
    List.filter (fun (c : Cachesim.Config.t) -> c.block_bytes = 32) lru_family
  in
  let shard domains =
    fevents
    /. median_time (fun () ->
           ignore (Cachesim.Shard.replay ~domains ~configs:shard_family first.buffer))
  in
  let shard1 = shard 1 and shard2 = shard 2 in
  let allocs =
    List.map
      (fun (key, _) ->
        let name = String.map (fun c -> if c = '+' then 'p' else c) key in
        ("allocators.ns_per_op." ^ name, num (churn_ns key)))
      Core.Context.paper_allocators
  in
  let cell_s = sum (fun c -> c.plain_s) and traced_s = sum (fun c -> c.traced_s) in
  let timer_s =
    float_of_int (List.fold_left (fun acc c -> acc + c.timed_calls) 0 ls)
    *. Lazy.force timer_cost_s
  in
  print_json
    (J.Obj
       [ ("scale", num scale);
         ("timer_cost_ns", num (Lazy.force timer_cost_s *. 1e9));
         ("cells", J.List per_cell);
         ( "metrics",
           J.Obj
             ([ ("workload.ns_per_event", num (ns (fun c -> c.gen_s)));
                ("cachesim.multi.ns_per_event", num (ns (fun c -> c.multi_s)));
                ("cachesim.multi_lru.ns_per_event", num (ns (fun c -> c.lru_s)));
                ("cachesim.multi_unread.ns_per_event", num (ns (fun c -> c.unread_s)));
                ("cachesim.hierarchy.ns_per_event", num (ns (fun c -> c.hier_s)));
                ("vmsim.page_sim.ns_per_event", num (ns (fun c -> c.pages_s)));
                ("memsim.checksum.ns_per_event", num (ns (fun c -> c.checksum_s)));
                ("cachesim.cpu_hierarchy.ns_per_event", num (ns (fun c -> c.cpu_s))) ]
             @ allocs
             @ List.map (fun (id, s) -> ("core.render_s." ^ id, num s)) renders
             @ [ ("core.cell_s", num cell_s);
                 ( "core.cell_unattributed_share",
                   num (1. -. (sum attributed /. traced_s)) );
                 ("ledger.trace_overhead_share", num (timer_s /. traced_s));
                 ("core.artifact_encode_us", num encode_us);
                 ("core.artifact_decode_us", num decode_us);
                 ("store.put_us", num (median !put_us));
                 ("store.find_us", num (median !find_us));
                 ("store.bytes_per_cell", J.Int bytes_per_cell);
                 ("exec.fill_s.j1", num fill1);
                 ("exec.fill_s.j2", num fill2);
                 ("exec.parallel_efficiency", num (fill1 /. (2. *. fill2)));
                 ("memsim.read_text.ns_per_event", num text_ns);
                 ("memsim.read_binary.ns_per_event", num binary_ns);
                 ("cachesim.shard.events_per_s.j1", num shard1);
                 ("cachesim.shard.events_per_s.j2", num shard2) ]) );
         ("errors", errors_json ()) ])

(* ---- info ----------------------------------------------------------- *)

let info () =
  print_json
    (J.Obj
       [ ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
         ("artifact_schema_version", J.Int Core.Artifact.schema_version);
         ("config", config_json) ])

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "check-reproduce" -> check_reproduce ()
  | "serve-load" -> serve_load ()
  | "check-import" -> check_import ()
  | "shift-capture" -> shift_capture ()
  | "ledger" -> ledger ()
  | "info" -> info ()
  | cmd ->
      Printf.eprintf
        "usage: harness.exe \
         (check-reproduce|serve-load|check-import|shift-capture|ledger|info) \
         [--key value]...  (got %S)\n"
        cmd;
      exit 2
