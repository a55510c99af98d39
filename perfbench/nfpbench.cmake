# Build file of the benchmark driver. run.py configures the repository's own
# top-level CMakeLists.txt with -DCMAKE_PROJECT_INCLUDE=<this file>; the
# deferred call below then defines the driver after the whole repository
# build has been read, so it compiles with exactly the repository's flags,
# language standard and build type, and links its libraries as built there.
set(NFPBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(nfpbench_add_driver)
  add_executable(nfpbench
    "${NFPBENCH_DIR}/main.cpp"
    "${NFPBENCH_DIR}/jobs.cpp"
    "${NFPBENCH_DIR}/runners.cpp"
    "${NFPBENCH_DIR}/trace.cpp")
  target_link_libraries(nfpbench PRIVATE nfp_workloads nfp_model nfp_board
                                         nfp_sim Threads::Threads)
endfunction()

cmake_language(DEFER CALL nfpbench_add_driver)
