# One harness per paper table/figure plus google-benchmark micros.
# Binaries land in build/bench/.

macro(dcws_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE dcws)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endmacro()

macro(dcws_gbench name)
  dcws_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endmacro()

dcws_bench(fig6_peak_load)
dcws_bench(fig7_scalability)
dcws_bench(fig8_growth)
dcws_bench(table2_tuning)
dcws_bench(ablation_baselines)
dcws_bench(ablation_geo)
dcws_bench(latency_profile)
dcws_gbench(parse_overhead)
dcws_gbench(micro_core)
