type storage = {
  fs_name : string;
  open_latency_s : float;
  per_call_latency_s : float;
  write_bandwidth_bps : float;
  read_bandwidth_bps : float;
  stripe_share : int;
}

type t = {
  name : string;
  cpu : Cpu.t;
  network : Network.t;
  cores_per_node : int;
  storage : storage;
}

let lustre : storage =
  {
    fs_name = "Lustre";
    open_latency_s = 200e-6;
    per_call_latency_s = 20e-6;
    write_bandwidth_bps = 20.0e9;
    read_bandwidth_bps = 24.0e9;
    stripe_share = 16;
  }

let gpfs : storage =
  {
    fs_name = "GPFS";
    open_latency_s = 300e-6;
    per_call_latency_s = 25e-6;
    write_bandwidth_bps = 10.0e9;
    read_bandwidth_bps = 12.0e9;
    stripe_share = 8;
  }

let local_ssd : storage =
  {
    fs_name = "local SSD";
    open_latency_s = 30e-6;
    per_call_latency_s = 5e-6;
    write_bandwidth_bps = 2.0e9;
    read_bandwidth_bps = 3.0e9;
    stripe_share = 4;
  }

let xeon_6248 : Cpu.t =
  {
    name = "Intel Xeon Scale 6248";
    frequency_ghz = 2.5;
    issue_width = 4.0;
    lsu_ports = 2.0;
    l1_kb = 32;
    l2_kb = 1024;
    cacheline_bytes = 64;
    l2_hit_penalty = 12.0;
    (* effective per-miss cost of a prefetched stream, not raw latency *)
    mem_penalty = 40.0;
    div_latency = 14.0;
    branch_penalty = 16.0;
  }

(* Knights Landing: low clock, narrow effective issue, small L2 slice,
   long divides — the reason compute-bound NPB codes slow down sharply
   when ported A -> B in Fig. 9. *)
let xeon_phi_7210 : Cpu.t =
  {
    name = "Intel Xeon Phi 7210";
    frequency_ghz = 1.3;
    issue_width = 1.6;
    lsu_ports = 1.0;
    l1_kb = 32;
    l2_kb = 256;
    cacheline_bytes = 64;
    l2_hit_penalty = 18.0;
    mem_penalty = 90.0;
    div_latency = 32.0;
    branch_penalty = 12.0;
  }

let xeon_e5_2680v4 : Cpu.t =
  {
    name = "Intel Xeon E5-2680 V4";
    frequency_ghz = 2.4;
    issue_width = 4.0;
    lsu_ports = 2.0;
    l1_kb = 32;
    l2_kb = 256;
    cacheline_bytes = 64;
    l2_hit_penalty = 12.0;
    mem_penalty = 45.0;
    div_latency = 15.0;
    branch_penalty = 15.0;
  }

let mellanox_hdr : Network.t =
  {
    name = "Mellanox HDR";
    inter_latency_s = 1.0e-6;
    inter_bandwidth_bps = 25.0e9;
    intra_latency_s = 0.3e-6;
    intra_bandwidth_bps = 12.0e9;
  }

let intel_opa : Network.t =
  {
    name = "Intel OPA";
    inter_latency_s = 1.2e-6;
    inter_bandwidth_bps = 12.5e9;
    intra_latency_s = 0.5e-6;
    intra_bandwidth_bps = 6.0e9;
  }

let no_network : Network.t =
  {
    name = "None";
    inter_latency_s = 0.4e-6;
    inter_bandwidth_bps = 10.0e9;
    intra_latency_s = 0.4e-6;
    intra_bandwidth_bps = 10.0e9;
  }

let platform_a =
  { name = "A"; cpu = xeon_6248; network = mellanox_hdr; cores_per_node = 40; storage = lustre }
let platform_b =
  { name = "B"; cpu = xeon_phi_7210; network = intel_opa; cores_per_node = 64; storage = gpfs }
let platform_c =
  { name = "C"; cpu = xeon_e5_2680v4; network = no_network; cores_per_node = 28; storage = local_ssd }

let all = [ platform_a; platform_b; platform_c ]
let by_name name =
  match List.find_opt (fun t -> t.name = String.uppercase_ascii name) all with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "unknown platform %S (A, B or C)" name)
let node_of_rank t rank = rank / t.cores_per_node
let same_node t a b = node_of_rank t a = node_of_rank t b

let pp_table2 ppf =
  let row name f =
    Format.fprintf ppf "%-14s %-24s %-22s %-24s@." name (f platform_a) (f platform_b) (f platform_c)
  in
  Format.fprintf ppf "%-14s %-24s %-22s %-24s@." "" "Platform A" "Platform B" "Platform C";
  row "Processor" (fun p -> p.cpu.Cpu.name);
  row "# Cores/node" (fun p -> string_of_int p.cores_per_node);
  row "L1 I/D" (fun p -> Printf.sprintf "%d KB" p.cpu.Cpu.l1_kb);
  row "L2" (fun p -> Printf.sprintf "%d KB" p.cpu.Cpu.l2_kb);
  row "Frequency" (fun p -> Printf.sprintf "%.1f GHz" p.cpu.Cpu.frequency_ghz);
  row "Network" (fun p -> p.network.Network.name)
