(** yada: Delaunay-refinement kernel (STAMP yada).

    Triangles carry a quality score and three neighbour links; a shared work
    ring distributes candidate triangles. Five mutable ARs (ring ops and
    neighbour-chasing updates) plus one immutable global counter — paper
    Table 1's 1/0/5 split over six ARs. *)

val workload : Machine.Workload.t
