module Log = Siesta_obs.Log
module Metrics = Siesta_obs.Metrics

let manifest_magic = "siesta-store-manifest v1"

type t = {
  root : string;
  mutex : Mutex.t;
  bindings : (string, binding) Hashtbl.t;  (** key -> binding *)
}

and binding = { b_hash : string; b_kind : string; b_created : float; b_descr : string }

type entry = {
  e_key : string;
  e_hash : string;
  e_kind : string;
  e_created : float;
  e_descr : string;
}

let default_root () =
  match Sys.getenv_opt "SIESTA_STORE" with
  | Some r when String.trim r <> "" -> r
  | _ -> ".siesta-store"

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let objects_dir t = Filename.concat t.root "objects"
let tmp_dir t = Filename.concat t.root "tmp"
let manifest_path t = Filename.concat t.root "manifest"

let object_path t hash =
  let shard = String.sub hash 0 2 in
  Filename.concat (Filename.concat (objects_dir t) shard) (String.sub hash 2 (String.length hash - 2))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic write: stage under tmp/, fsync-free rename into place.  The
   destination either has the complete content or the old one. *)
let atomic_write t ~dest content =
  mkdir_p (Filename.dirname dest);
  mkdir_p (tmp_dir t);
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "w-%d-%d-%s" (Unix.getpid ()) (Hashtbl.hash (Domain.self ()))
         (Filename.basename dest))
  in
  let oc = open_out_bin tmp in
  (try output_string oc content
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp dest

(* ------------------------------------------------------------------ *)
(* Manifest (text, tab-separated, atomically rewritten) *)

let parse_manifest contents =
  let bindings = Hashtbl.create 64 in
  (match String.split_on_char '\n' contents with
  | header :: lines when header = manifest_magic ->
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            match String.split_on_char '\t' line with
            | [ key; hash; kind; created; descr ] -> (
                match float_of_string_opt created with
                | Some created ->
                    Hashtbl.replace bindings key
                      { b_hash = hash; b_kind = kind; b_created = created;
                        b_descr = Scanf.unescaped descr }
                | None ->
                    Log.warn (fun () ->
                        ("store.manifest", [ ("bad_line", string_of_int (i + 2)) ])))
            | _ ->
                Log.warn (fun () ->
                    ("store.manifest", [ ("bad_line", string_of_int (i + 2)) ])))
        lines
  | _ :: _ | [] ->
      Log.warn (fun () -> ("store.manifest", [ ("error", "bad header; starting empty") ])));
  bindings

let render_manifest bindings =
  let b = Buffer.create 4096 in
  Buffer.add_string b manifest_magic;
  Buffer.add_char b '\n';
  let entries = Hashtbl.fold (fun key bd acc -> (key, bd) :: acc) bindings [] in
  let entries =
    List.sort
      (fun (k1, b1) (k2, b2) -> compare (b1.b_created, k1) (b2.b_created, k2))
      entries
  in
  List.iter
    (fun (key, bd) ->
      Buffer.add_string b
        (Printf.sprintf "%s\t%s\t%s\t%.6f\t%s\n" key bd.b_hash bd.b_kind bd.b_created
           (String.escaped bd.b_descr)))
    entries;
  Buffer.contents b

let save_manifest t = atomic_write t ~dest:(manifest_path t) (render_manifest t.bindings)

let open_ ?root () =
  let root = match root with Some r -> r | None -> default_root () in
  mkdir_p root;
  mkdir_p (Filename.concat root "objects");
  mkdir_p (Filename.concat root "tmp");
  let bindings =
    let path = Filename.concat root "manifest" in
    if Sys.file_exists path then parse_manifest (read_file path) else Hashtbl.create 64
  in
  { root; mutex = Mutex.create (); bindings }

let root t = t.root

(* ------------------------------------------------------------------ *)
(* Blobs *)

let c_put_bytes () = Metrics.counter "store.put_bytes"
let c_get_bytes () = Metrics.counter "store.get_bytes"

let put t blob =
  let hash = Hash.content_hash blob in
  with_lock t (fun () ->
      let dest = object_path t hash in
      if not (Sys.file_exists dest) then begin
        atomic_write t ~dest blob;
        if Metrics.enabled () then Metrics.incr (c_put_bytes ()) (String.length blob);
        Log.debug (fun () ->
            ( "store.put",
              [ ("hash", hash); ("bytes", string_of_int (String.length blob)) ] ))
      end);
  hash

let get t hash =
  with_lock t (fun () ->
      let path = object_path t hash in
      if not (Sys.file_exists path) then None
      else
        let blob = read_file path in
        if Hash.content_hash blob <> hash then begin
          Log.warn (fun () ->
              ("store.get", [ ("hash", hash); ("error", "content mismatch; dropping") ]));
          (try Sys.remove path with Sys_error _ -> ());
          None
        end
        else begin
          if Metrics.enabled () then Metrics.incr (c_get_bytes ()) (String.length blob);
          Some blob
        end)

let contains t hash = Sys.file_exists (object_path t hash)

(* ------------------------------------------------------------------ *)
(* Manifest operations *)

let bind t ~key ~hash ~kind ~descr =
  with_lock t (fun () ->
      Hashtbl.replace t.bindings key
        { b_hash = hash; b_kind = kind; b_created = Unix.gettimeofday (); b_descr = descr };
      save_manifest t)

let resolve t ~key =
  with_lock t (fun () ->
      Option.map (fun b -> b.b_hash) (Hashtbl.find_opt t.bindings key))

let entries t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun key b acc ->
          { e_key = key; e_hash = b.b_hash; e_kind = b.b_kind; e_created = b.b_created;
            e_descr = b.b_descr }
          :: acc)
        t.bindings []
      |> List.sort (fun a b -> compare (a.e_created, a.e_key) (b.e_created, b.e_key)))

let starts_with ~prefix s =
  String.length prefix <= String.length s && String.sub s 0 (String.length prefix) = prefix

let rm t prefix =
  if prefix = "" then invalid_arg "Store.rm: empty prefix";
  with_lock t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key b acc ->
            if starts_with ~prefix key || starts_with ~prefix b.b_hash then key :: acc
            else acc)
          t.bindings []
      in
      List.iter (Hashtbl.remove t.bindings) victims;
      if victims <> [] then save_manifest t;
      List.length victims)

(* ------------------------------------------------------------------ *)
(* Maintenance *)

let iter_objects t f =
  let odir = objects_dir t in
  if Sys.file_exists odir then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat odir shard in
        if Sys.is_directory sdir && Hash.is_hex shard && String.length shard = 2 then
          Array.iter
            (fun name -> f (shard ^ name) (Filename.concat sdir name))
            (Sys.readdir sdir))
      (Sys.readdir odir)

let size_bytes t =
  let total = ref 0 in
  iter_objects t (fun _hash path -> total := !total + (Unix.stat path).Unix.st_size);
  !total

let object_size t hash =
  match Unix.stat (object_path t hash) with
  | st -> Some st.Unix.st_size
  | exception Unix.Unix_error _ -> None

let objects t =
  let out = ref [] in
  iter_objects t (fun hash path -> out := (hash, (Unix.stat path).Unix.st_size) :: !out);
  List.sort compare !out

type verify_report = { v_objects : int; v_entries : int; v_issues : string list }

let verify t =
  with_lock t (fun () ->
      let objects = ref 0 in
      let issues = ref [] in
      let problem fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
      let kinds = Hashtbl.create 64 in
      iter_objects t (fun hash path ->
          incr objects;
          match read_file path with
          | exception Sys_error m -> problem "object %s: unreadable (%s)" hash m
          | blob ->
              if Hash.content_hash blob <> hash then
                problem "object %s: content does not match its name" hash
              else (
                match Codec.unframe blob with
                | kind, _payload -> Hashtbl.replace kinds hash kind
                | exception Codec.Corrupt m -> problem "object %s: %s" hash m));
      let nentries = ref 0 in
      Hashtbl.iter
        (fun key b ->
          incr nentries;
          match Hashtbl.find_opt kinds b.b_hash with
          | None ->
              if not (Sys.file_exists (object_path t b.b_hash)) then
                problem "entry %s: missing blob %s" key b.b_hash
              else problem "entry %s: blob %s failed verification" key b.b_hash
          | Some kind ->
              if kind <> b.b_kind then
                problem "entry %s: kind %S but blob %s is %S" key b.b_kind b.b_hash kind)
        t.bindings;
      { v_objects = !objects; v_entries = !nentries; v_issues = List.rev !issues })

type gc_stats = { live : int; swept : int; freed_bytes : int }

let gc t =
  with_lock t (fun () ->
      let marked = Hashtbl.create 64 in
      Hashtbl.iter (fun _key b -> Hashtbl.replace marked b.b_hash ()) t.bindings;
      let live = ref 0 and swept = ref 0 and freed = ref 0 in
      let victims = ref [] in
      iter_objects t (fun hash path ->
          if Hashtbl.mem marked hash then incr live
          else victims := (hash, path) :: !victims);
      List.iter
        (fun (hash, path) ->
          let bytes = (Unix.stat path).Unix.st_size in
          (try
             Sys.remove path;
             incr swept;
             freed := !freed + bytes;
             Log.debug (fun () -> ("store.gc", [ ("swept", hash) ]))
           with Sys_error m ->
             Log.warn (fun () -> ("store.gc", [ ("hash", hash); ("error", m) ])));
          (* drop the shard dir when it just became empty *)
          let sdir = Filename.dirname path in
          match Sys.readdir sdir with
          | [||] -> ( try Unix.rmdir sdir with Unix.Unix_error _ -> ())
          | _ -> ())
        !victims;
      (* stale staging files from crashed writers *)
      let tdir = tmp_dir t in
      if Sys.file_exists tdir then
        Array.iter
          (fun name ->
            let path = Filename.concat tdir name in
            try Sys.remove path with Sys_error _ -> ())
          (Sys.readdir tdir);
      { live = !live; swept = !swept; freed_bytes = !freed })
