import numpy as np
from repro import run_spmd
from repro.apps.uts import TreeParams, UTSConfig, run_uts
from repro.apps.randomaccess import RAConfig, run_randomaccess
from repro.apps.producer_consumer import PCConfig, \
    run_producer_consumer

uts = run_uts(4, UTSConfig(tree=TreeParams(b0=4, max_depth=6,
                                           seed=19)),
              racecheck=True)
assert uts.races == 0, uts

ra = run_randomaccess(4, RAConfig(updates_per_image=32,
                                  variant="function-shipping"),
                      verify=True, racecheck=True)
assert ra.races == 0 and ra.errors == 0, ra

pc = run_producer_consumer(4, PCConfig(iterations=50,
                                       variant="cofence"),
                           racecheck=True)
assert pc.races == 0, pc

# control: a put whose source is reused without a cofence
def racy(img):
    T = img.machine.coarray_by_name("T")
    if img.rank == 0:
        src = np.ones(8)
        img.copy_async(T.ref(1), src)
        img.local_write(src, 2.0)   # no cofence: must be flagged
    yield from img.barrier()

m, _ = run_spmd(racy, 2, racecheck=True,
                setup=lambda m: m.coarray("T", shape=8))
assert len(m.racecheck.races) == 1, m.racecheck.races
report = m.racecheck.races[0]
assert "cofence" in report.hint, report
print("races smoke ok: apps clean, control flagged at",
      report.location)
