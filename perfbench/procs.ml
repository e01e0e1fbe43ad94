(* The sagma_server processes a workload runs against. They run out of
   process so the load generator's allocation never shares an OCaml
   runtime, or its stop-the-world minor collections, with the server
   being measured. *)

type server = { pid : int; port : int }

let live : server list ref = ref []

(* The built server sits next to this executable in dune's build tree:
   _build/default/perfbench/sagma_bench.exe -> _build/default/bin/. *)
let server_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let exe = Filename.concat (Filename.concat (Filename.dirname dir) "bin") "sagma_server.exe" in
  if not (Sys.file_exists exe) then failwith ("server executable not found: " ^ exe);
  exe

(* A port the kernel just handed out and released; the server binds it
   immediately after, so a collision needs another process to grab the
   same ephemeral port in between. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Start one server with default flags plus [args] (only --shard-of or
   --coordinator), logging to [log], and wait until it accepts
   connections. *)
let spawn ~log ?(args = []) () : server =
  let port = free_port () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = server_exe () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process exe
          (Array.of_list ((exe :: "--port" :: string_of_int port :: args)))
          Unix.stdin out out)
  in
  let srv = { pid; port } in
  live := srv :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Sagma_protocol.Transport.connect ~port () with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      if exited pid then
        failwith (Printf.sprintf "server on port %d exited at start (see %s)" port log);
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "server on port %d never came up" port);
      Unix.sleepf 0.01;
      wait ()
  in
  wait ();
  srv

(* Peak resident set (VmHWM) of a live server, in MB. *)
let peak_rss_mb (s : server) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> find ()
      in
      find ())

(* SIGTERM starts the server's graceful drain; SIGKILL after 10 s. Waits
   until the process is gone. *)
let stop (s : server) =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    if not (exited s.pid) then
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
  in
  wait ()

let stop_all () = List.iter stop !live

(* No server outlives the benchmark: normal exit, an exception, or a
   signal to the benchmark itself. *)
let () =
  at_exit stop_all;
  let on_signal _ =
    stop_all ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
