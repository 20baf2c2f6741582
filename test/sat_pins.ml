(* The BMOC SAT instance, pinned.  For each corpus app and bug-set
   program: the bmoc pass's metrics on a fresh engine (the SAT
   conflict, decision and propagation counters among them) and the MD5
   of every reported bug's witness schedule, each bug rendered as
   "pp:order" pairs joined by ',' and the bugs joined by ';'.  The
   solver's counters depend on every clause, literal order and variable
   number of every instance it is handed, so any change to how a
   constraint problem is emitted fails here by program name. *)

let pins : (string * string * string) list =
  [
    ( "go",
      "bmoc.channels_analysed=78 bmoc.combinations=168 bmoc.groups_checked=1287 bmoc.paths_deduped=476 bmoc.sat_conflicts=710 bmoc.sat_decisions=748 bmoc.sat_propagations=18074 bmoc.solver_calls=1287 bmoc.total_path_events=1834 health.attempted=79 health.ok=79",
      "63292f9899c71fa0de78df92865f0902" );
    ( "kubernetes",
      "bmoc.channels_analysed=118 bmoc.combinations=184 bmoc.groups_checked=618 bmoc.paths_deduped=328 bmoc.sat_conflicts=368 bmoc.sat_decisions=391 bmoc.sat_propagations=3252 bmoc.solver_calls=618 bmoc.total_path_events=930 health.attempted=119 health.ok=119",
      "f948e03f53908cc8a3bdb9c7a7a9946a" );
    ( "docker",
      "bmoc.channels_analysed=109 bmoc.combinations=224 bmoc.groups_checked=816 bmoc.paths_deduped=1184 bmoc.sat_conflicts=469 bmoc.sat_decisions=503 bmoc.sat_propagations=5899 bmoc.solver_calls=816 bmoc.total_path_events=1951 health.attempted=110 health.ok=110",
      "e3683ba505897bf4f810e9a84fd287e6" );
    ( "hugo",
      "bmoc.channels_analysed=20 bmoc.combinations=37 bmoc.groups_checked=198 bmoc.paths_deduped=34 bmoc.sat_conflicts=125 bmoc.sat_decisions=125 bmoc.sat_propagations=1229 bmoc.solver_calls=198 bmoc.total_path_events=201 health.attempted=21 health.ok=21",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "gin",
      "bmoc.channels_analysed=6 bmoc.combinations=23 bmoc.groups_checked=170 bmoc.paths_deduped=6 bmoc.sat_conflicts=111 bmoc.sat_decisions=111 bmoc.sat_propagations=1159 bmoc.solver_calls=170 bmoc.total_path_events=159 health.attempted=7 health.ok=7",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "frp",
      "bmoc.channels_analysed=6 bmoc.combinations=23 bmoc.groups_checked=170 bmoc.paths_deduped=6 bmoc.sat_conflicts=111 bmoc.sat_decisions=111 bmoc.sat_propagations=1159 bmoc.solver_calls=170 bmoc.total_path_events=159 health.attempted=7 health.ok=7",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "gogs",
      "bmoc.channels_analysed=12 bmoc.combinations=29 bmoc.groups_checked=182 bmoc.paths_deduped=18 bmoc.sat_conflicts=117 bmoc.sat_decisions=117 bmoc.sat_propagations=1189 bmoc.solver_calls=182 bmoc.total_path_events=177 health.attempted=13 health.ok=13",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "syncthing",
      "bmoc.channels_analysed=22 bmoc.combinations=40 bmoc.groups_checked=204 bmoc.paths_deduped=38 bmoc.sat_conflicts=130 bmoc.sat_decisions=130 bmoc.sat_propagations=1244 bmoc.solver_calls=204 bmoc.total_path_events=212 health.attempted=23 health.ok=23",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "etcd",
      "bmoc.channels_analysed=101 bmoc.combinations=217 bmoc.groups_checked=973 bmoc.paths_deduped=1035 bmoc.sat_conflicts=519 bmoc.sat_decisions=548 bmoc.sat_propagations=12129 bmoc.solver_calls=973 bmoc.total_path_events=1892 health.attempted=102 health.ok=102",
      "5dfaab92464c4aba9fb087bb73f86631" );
    ( "v2ray-core",
      "bmoc.channels_analysed=16 bmoc.combinations=33 bmoc.groups_checked=190 bmoc.paths_deduped=26 bmoc.sat_conflicts=121 bmoc.sat_decisions=121 bmoc.sat_propagations=1209 bmoc.solver_calls=190 bmoc.total_path_events=189 health.attempted=17 health.ok=17",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "prometheus",
      "bmoc.channels_analysed=20 bmoc.combinations=39 bmoc.groups_checked=200 bmoc.paths_deduped=36 bmoc.sat_conflicts=128 bmoc.sat_decisions=129 bmoc.sat_propagations=1237 bmoc.solver_calls=200 bmoc.total_path_events=210 health.attempted=21 health.ok=21",
      "cb00bc8409b8565f14c273032b79429d" );
    ( "fzf",
      "bmoc.channels_analysed=7 bmoc.combinations=31 bmoc.groups_checked=179 bmoc.paths_deduped=6 bmoc.sat_conflicts=118 bmoc.sat_decisions=126 bmoc.sat_propagations=1245 bmoc.solver_calls=179 bmoc.total_path_events=185 health.attempted=8 health.ok=8",
      "74419dc5c36cdd2d697e98c6a0a740f3" );
    ( "traefik",
      "bmoc.channels_analysed=8 bmoc.combinations=25 bmoc.groups_checked=174 bmoc.paths_deduped=10 bmoc.sat_conflicts=113 bmoc.sat_decisions=113 bmoc.sat_propagations=1169 bmoc.solver_calls=174 bmoc.total_path_events=165 health.attempted=9 health.ok=9",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "caddy",
      "bmoc.channels_analysed=6 bmoc.combinations=23 bmoc.groups_checked=170 bmoc.paths_deduped=6 bmoc.sat_conflicts=111 bmoc.sat_decisions=111 bmoc.sat_propagations=1159 bmoc.solver_calls=170 bmoc.total_path_events=159 health.attempted=7 health.ok=7",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "go-ethereum",
      "bmoc.channels_analysed=54 bmoc.combinations=133 bmoc.groups_checked=459 bmoc.paths_deduped=326 bmoc.sat_conflicts=267 bmoc.sat_decisions=303 bmoc.sat_propagations=3251 bmoc.solver_calls=459 bmoc.total_path_events=876 health.attempted=55 health.ok=55",
      "7e00aa650760e9fdb26a33e7fd6feea1" );
    ( "beego",
      "bmoc.channels_analysed=11 bmoc.combinations=28 bmoc.groups_checked=180 bmoc.paths_deduped=16 bmoc.sat_conflicts=116 bmoc.sat_decisions=116 bmoc.sat_propagations=1184 bmoc.solver_calls=180 bmoc.total_path_events=174 health.attempted=12 health.ok=12",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "mkcert",
      "bmoc.channels_analysed=9 bmoc.combinations=26 bmoc.groups_checked=176 bmoc.paths_deduped=12 bmoc.sat_conflicts=114 bmoc.sat_decisions=114 bmoc.sat_propagations=1174 bmoc.solver_calls=176 bmoc.total_path_events=168 health.attempted=10 health.ok=10",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "tidb",
      "bmoc.channels_analysed=47 bmoc.combinations=65 bmoc.groups_checked=252 bmoc.paths_deduped=90 bmoc.sat_conflicts=152 bmoc.sat_decisions=153 bmoc.sat_propagations=1367 bmoc.solver_calls=252 bmoc.total_path_events=286 health.attempted=48 health.ok=48",
      "c6f14d043ecdfcbc2721aa27515dc8f9" );
    ( "cockroachdb",
      "bmoc.channels_analysed=40 bmoc.combinations=61 bmoc.groups_checked=240 bmoc.paths_deduped=72 bmoc.sat_conflicts=148 bmoc.sat_decisions=151 bmoc.sat_propagations=1341 bmoc.solver_calls=240 bmoc.total_path_events=276 health.attempted=41 health.ok=41",
      "59c53803b83f0bca561ec65bb52d2634" );
    ( "grpc",
      "bmoc.channels_analysed=32 bmoc.combinations=196 bmoc.groups_checked=1908 bmoc.paths_deduped=176 bmoc.sat_conflicts=1035 bmoc.sat_decisions=1050 bmoc.sat_propagations=17715 bmoc.solver_calls=1908 bmoc.total_path_events=3024 health.attempted=33 health.ok=33",
      "aa71e828e77bb2b84f4b45d7afd21022" );
    ( "bbolt",
      "bmoc.channels_analysed=11 bmoc.combinations=57 bmoc.groups_checked=213 bmoc.paths_deduped=128 bmoc.sat_conflicts=125 bmoc.sat_decisions=128 bmoc.sat_propagations=1340 bmoc.solver_calls=213 bmoc.total_path_events=399 health.attempted=12 health.ok=12",
      "3298ba1e3eb47398f79fe01bbb8cc204" );
    ( "single-send-1",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-2",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-3",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-4",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-5",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-6",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-7",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-8",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-9",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-10",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-11",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "single-send-12",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=8 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "missing-notify-1",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-2",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-3",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-4",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-5",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-6",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-7",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "missing-notify-8",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_conflicts=1 bmoc.sat_decisions=2 bmoc.sat_propagations=6 bmoc.solver_calls=2 bmoc.total_path_events=5 health.attempted=2 health.ok=2",
      "82026eba647231027b23e153e1e9091a" );
    ( "loop-send-1",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "loop-send-2",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "loop-send-3",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "loop-send-4",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "loop-send-5",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "loop-send-6",
      "bmoc.channels_analysed=1 bmoc.combinations=6 bmoc.groups_checked=1 bmoc.sat_decisions=1 bmoc.sat_propagations=6 bmoc.solver_calls=1 bmoc.total_path_events=18 health.attempted=2 health.ok=2",
      "b28aacd5d2d90271d175a1610c8e9fa2" );
    ( "chan-mutex-1",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=7 bmoc.sat_conflicts=4 bmoc.sat_decisions=6 bmoc.sat_propagations=47 bmoc.solver_calls=7 bmoc.total_path_events=7 health.attempted=2 health.ok=2",
      "fcf3e00b915775e517750910788c56f2" );
    ( "chan-mutex-2",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=7 bmoc.sat_conflicts=4 bmoc.sat_decisions=6 bmoc.sat_propagations=47 bmoc.solver_calls=7 bmoc.total_path_events=7 health.attempted=2 health.ok=2",
      "fcf3e00b915775e517750910788c56f2" );
    ( "chan-mutex-3",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=7 bmoc.sat_conflicts=4 bmoc.sat_decisions=6 bmoc.sat_propagations=47 bmoc.solver_calls=7 bmoc.total_path_events=7 health.attempted=2 health.ok=2",
      "fcf3e00b915775e517750910788c56f2" );
    ( "chan-mutex-4",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=7 bmoc.sat_conflicts=4 bmoc.sat_decisions=6 bmoc.sat_propagations=47 bmoc.solver_calls=7 bmoc.total_path_events=7 health.attempted=2 health.ok=2",
      "fcf3e00b915775e517750910788c56f2" );
    ( "double-recv-1",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=3 bmoc.sat_conflicts=2 bmoc.sat_decisions=6 bmoc.sat_propagations=35 bmoc.solver_calls=3 bmoc.total_path_events=4 health.attempted=2 health.ok=2",
      "1efb6f02795f1f36d2616ecab1f1ab32" );
    ( "double-recv-2",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=3 bmoc.sat_conflicts=2 bmoc.sat_decisions=6 bmoc.sat_propagations=35 bmoc.solver_calls=3 bmoc.total_path_events=4 health.attempted=2 health.ok=2",
      "1efb6f02795f1f36d2616ecab1f1ab32" );
    ( "double-recv-3",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=3 bmoc.sat_conflicts=2 bmoc.sat_decisions=6 bmoc.sat_propagations=35 bmoc.solver_calls=3 bmoc.total_path_events=4 health.attempted=2 health.ok=2",
      "1efb6f02795f1f36d2616ecab1f1ab32" );
    ( "waitgroup-1",
      "health.attempted=1 health.ok=1",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "waitgroup-2",
      "health.attempted=1 health.ok=1",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "waitgroup-3",
      "health.attempted=1 health.ok=1",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "waitgroup-4",
      "health.attempted=1 health.ok=1",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "waitgroup-5",
      "health.attempted=1 health.ok=1",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "timer-1",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_propagations=4 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "timer-2",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_propagations=4 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "timer-3",
      "bmoc.channels_analysed=1 bmoc.combinations=2 bmoc.groups_checked=2 bmoc.sat_propagations=4 bmoc.solver_calls=2 bmoc.total_path_events=6 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "nil-chan-1",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=1 bmoc.paths_deduped=1 bmoc.sat_propagations=2 bmoc.solver_calls=1 bmoc.total_path_events=1 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "nil-chan-2",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=1 bmoc.paths_deduped=1 bmoc.sat_propagations=2 bmoc.solver_calls=1 bmoc.total_path_events=1 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "dyn-value-1",
      "bmoc.channels_analysed=1 bmoc.combinations=9 bmoc.groups_checked=27 bmoc.sat_conflicts=18 bmoc.sat_decisions=18 bmoc.sat_propagations=97 bmoc.solver_calls=27 bmoc.total_path_events=54 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "dyn-value-2",
      "bmoc.channels_analysed=1 bmoc.combinations=9 bmoc.groups_checked=27 bmoc.sat_conflicts=18 bmoc.sat_decisions=18 bmoc.sat_propagations=97 bmoc.solver_calls=27 bmoc.total_path_events=54 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "dyn-value-3",
      "bmoc.channels_analysed=1 bmoc.combinations=9 bmoc.groups_checked=27 bmoc.sat_conflicts=18 bmoc.sat_decisions=18 bmoc.sat_propagations=97 bmoc.solver_calls=27 bmoc.total_path_events=54 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "dyn-value-4",
      "bmoc.channels_analysed=1 bmoc.combinations=9 bmoc.groups_checked=27 bmoc.sat_conflicts=18 bmoc.sat_decisions=18 bmoc.sat_propagations=97 bmoc.solver_calls=27 bmoc.total_path_events=54 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "lca-crit-1",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=2 bmoc.sat_conflicts=2 bmoc.sat_decisions=2 bmoc.sat_propagations=5 bmoc.solver_calls=2 bmoc.total_path_events=3 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "lca-crit-2",
      "bmoc.channels_analysed=1 bmoc.combinations=1 bmoc.groups_checked=2 bmoc.sat_conflicts=2 bmoc.sat_decisions=2 bmoc.sat_propagations=5 bmoc.solver_calls=2 bmoc.total_path_events=3 health.attempted=2 health.ok=2",
      "d41d8cd98f00b204e9800998ecf8427e" );
  ]
