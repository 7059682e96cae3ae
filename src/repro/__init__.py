"""repro: reproduction of "A High Performance Pair Trading Application".

An open-source implementation of the paper's complete system (IPPS 2009,
Wang, Rostoker & Wagner):

* the **MarketMiner** analytics platform — an MPI-style, modular, DAG
  stream-processing infrastructure (:mod:`repro.marketminer` over
  :mod:`repro.mpi`);
* the **canonical intra-day pair trading strategy** with the Table-I
  parameterisation (:mod:`repro.strategy`);
* the three **correlation measures** — Pearson, robust Maronna, Combined —
  with online sliding-window and block-parallel engines (:mod:`repro.corr`);
* the **TAQ data substrate**: synthetic multi-factor quote streams, file
  IO, cleaning (:mod:`repro.taq`, :mod:`repro.clean`, :mod:`repro.bars`);
* three **backtesting architectures** matching the paper's Approaches 1–3
  plus an SGE batch-queue simulator (:mod:`repro.backtest`,
  :mod:`repro.sge`);
* the paper's **performance metrics** and treatment summaries
  (:mod:`repro.metrics`).

Quick start::

    from repro.backtest import SweepConfig, run_sweep
    from repro.metrics import treatment_summaries, format_treatment_table

    store, grid = run_sweep(SweepConfig(n_symbols=8, n_days=2))
    tables = treatment_summaries(store, grid, "returns")
    print(format_treatment_table(tables, "Average cumulative returns"))
"""

__version__ = "0.1.0"
