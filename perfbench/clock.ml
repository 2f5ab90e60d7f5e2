(* Non-allocating clocks, so that timing a call does not itself show up in
   the allocation counts the traced run reports. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external thread_cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]
(* User plus system CPU of the whole process, every domain included. *)
external process_cpu_ns : unit -> int = "perfbench_process_cpu_ns" [@@noalloc]

external max_rss_kib : unit -> int = "perfbench_max_rss_kib" [@@noalloc]
external online_cpus : unit -> int = "perfbench_online_cpus" [@@noalloc]
