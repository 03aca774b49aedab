# Benchmark-harness targets. Included from the top-level CMakeLists (not
# via add_subdirectory) so every artifact in ${CMAKE_BINARY_DIR}/bench is
# an executable and `for b in build/bench/*; do $b; done` runs exactly
# the harness.

function(gridctl_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE gridctl)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# Figure/table reproduction binaries (print paper-vs-measured rows).
gridctl_bench(bench_fig2_prices)
gridctl_bench(bench_fig3_prediction)
gridctl_bench(bench_fig4_smoothing)
gridctl_bench(bench_fig5_servers)
gridctl_bench(bench_fig6_shaving)
gridctl_bench(bench_fig7_servers_shaving)

# Ablations.
gridctl_bench(bench_ablation_qr_tradeoff)
gridctl_bench(bench_ablation_horizon)
gridctl_bench(bench_ablation_prediction)
gridctl_bench(bench_ablation_feedback)
gridctl_bench(bench_ablation_cost_basis)

# Performance microbenchmarks (google-benchmark).
gridctl_bench(bench_perf_solvers)
target_link_libraries(bench_perf_solvers PRIVATE benchmark::benchmark)
gridctl_bench(bench_perf_mpc_step)
target_link_libraries(bench_perf_mpc_step PRIVATE benchmark::benchmark)
gridctl_bench(bench_perf_runtime_tick)
target_link_libraries(bench_perf_runtime_tick PRIVATE benchmark::benchmark)

# Extension benches (related-work features: refs [6] and [9]).
gridctl_bench(bench_ext_deferral)
gridctl_bench(bench_ext_green)
gridctl_bench(bench_ext_cost_capping)
gridctl_bench(bench_ablation_provisioning)
gridctl_bench(bench_ablation_ramp_sla)
gridctl_bench(bench_ablation_price_preview)
gridctl_bench(bench_ablation_monte_carlo)
gridctl_bench(bench_ext_demand_charge)

# The paper-figure reproductions and the extension/ablation benches that
# print PASS/DEVIATION shape checks exit 1 on a DEVIATION, so they run as
# ctest tests (`ctest -L figures`, well under a second together): a
# change to the reference or the controller cannot bend a published
# figure unseen.
foreach(name bench_fig2_prices bench_fig3_prediction bench_fig4_smoothing
             bench_fig5_servers bench_fig6_shaving bench_fig7_servers_shaving
             bench_ext_green bench_ext_deferral bench_ablation_cost_basis)
  add_test(NAME ${name} COMMAND ${name})
  set_tests_properties(${name} PROPERTIES LABELS figures)
endforeach()
