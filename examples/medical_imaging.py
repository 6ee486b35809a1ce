#!/usr/bin/env python3
"""Medical-image smoothing on active storage — the paper's motivating
Gaussian-filter domain ("widely used in the area of geographic
information systems and medical image processing").

A radiology archive holds a batch of scans on the parallel file
system.  A cohort-analysis job smooths every scan.  We run the job at
two cluster loads:

* quiet night shift — 2 concurrent scan reads per storage node;
* busy morning      — 12 concurrent scan reads per storage node;

and show that DOSAS offloads the filter at night (active storage
pays off) but pulls the computation back to the clients in the
morning rush (contention would overload the 2-core storage node).

With ``--verify`` the run uses small real images and bit-exactly
checks every filtered output against a one-shot reference filter,
including any scan whose kernel was interrupted mid-flight and
migrated to a client.

Run:  python examples/medical_imaging.py [--verify]
"""

import sys

import numpy as np

from repro import MB, Scheme, WorkloadSpec, run_scheme
from repro.kernels import get_kernel
from repro.pvfs.filehandle import SyntheticData


def run_shift(name: str, n_scans: int, scan_bytes: int, verify: bool) -> None:
    print(f"--- {name}: {n_scans} concurrent scans of {scan_bytes // MB} MB ---")
    spec = WorkloadSpec(
        kernel="gaussian2d",
        n_requests=n_scans,
        request_bytes=scan_bytes,
        execute_kernels=verify,
        image_width=512 if verify else 1024,
        # Seed 0 makes scan i the data of ``SyntheticData(i)``, the
        # reference the verification recomputes.
        seed=0,
    )
    results = {scheme: run_scheme(scheme, spec) for scheme in Scheme}
    for scheme, r in results.items():
        print(f"  {scheme.value.upper():6s} {r.makespan:8.2f}s  "
              f"offloaded={r.served_active}/{n_scans}  demoted={r.demoted}")

    dosas = results[Scheme.DOSAS]
    best = min(results[Scheme.TS].makespan, results[Scheme.AS].makespan)
    print(f"  DOSAS within {100 * (dosas.makespan / best - 1):.1f}% of the "
          f"better baseline")

    if verify:
        kernel = get_kernel("gaussian2d")
        for i, output in enumerate(dosas.results):
            scan = SyntheticData(i).read(0, scan_bytes).reshape(-1, 512)
            reference = kernel.reference(scan)
            assert output is not None and np.allclose(output, reference), (
                f"scan {i} output diverged from reference"
            )
        print(f"  all {n_scans} filtered scans verified bit-exact "
              f"(including migrated ones)")
    print()


def main() -> None:
    verify = "--verify" in sys.argv
    scan_bytes = 2 * MB if verify else 256 * MB
    run_shift("Night shift (low contention)", 2, scan_bytes, verify)
    run_shift("Morning rush (high contention)", 12, scan_bytes, verify)
    print("DOSAS offloads when storage has headroom and demotes under "
          "contention — per-shift decisions, no application changes.")


if __name__ == "__main__":
    main()
