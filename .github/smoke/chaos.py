from repro import FaultPlan, MachineParams
from repro.apps.uts import TreeParams, UTSConfig, run_uts, \
    sequential_tree_size
from repro.apps.randomaccess import RAConfig, run_randomaccess

tree = TreeParams(b0=4, max_depth=6, seed=19)
uts = run_uts(4, UTSConfig(tree=tree),
              params=MachineParams.uniform(4, reliable=True),
              seed=1, faults=FaultPlan(drop=0.05, duplicate=0.02,
                                       seed=1))
assert uts.total_nodes == sequential_tree_size(tree), uts
assert uts.retransmits > 0 and uts.drops > 0, uts

ra = run_randomaccess(4, RAConfig(log2_local_table=8,
                                  updates_per_image=32),
                      params=MachineParams.uniform(4,
                                                   reliable=True),
                      seed=1, verify=True,
                      faults=FaultPlan(drop=0.05, duplicate=0.02,
                                       seed=2))
assert ra.errors == 0, ra
assert ra.retransmits > 0, ra
print("chaos smoke ok:", uts.retransmits, "UTS retransmits,",
      ra.retransmits, "RA retransmits")
