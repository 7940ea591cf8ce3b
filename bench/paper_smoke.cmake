# Smoke test for the paper driver (ctest `paper_smoke`):
#   1. `paper` over an empty scratch store at ADAPTSIM_SCALE=0.01
#      must exit 0 and print every section's heading, in order;
#   2. `paper <unknown>` must exit non-zero and list the sections.
#
#   cmake -DPAPER=<paper binary> -DDATA_DIR=<scratch dir> \
#         -P paper_smoke.cmake

file(REMOVE_RECURSE ${DATA_DIR})
set(ENV{ADAPTSIM_DATA_DIR} ${DATA_DIR})
set(ENV{ADAPTSIM_SCALE} 0.01)
set(ENV{ADAPTSIM_THREADS} 2)

execute_process(COMMAND ${PAPER}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE_RECURSE ${DATA_DIR})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper exited with ${rc}:\n${out}\n${err}")
endif()

# One heading per section, in DESIGN.md §3 order.
set(headings
    "Table I: microarchitectural design parameters"
    "Paper observations: the optimal sizes vary over time"
    "Paper: best sizes mgrid 32"
    "Table III: best overall static configuration"
    "Fig. 4: model efficiency vs best overall static"
    "Fig. 5: performance and energy vs best static"
    "Fig. 6: model vs specialised static vs ideal"
    "Fig. 7: per-phase accuracy over"
    "Fig. 8: efficiency distributions with one parameter"
    "Table IV: sets sampled per cache per feature type"
    "Fig. 9: monitoring energy overheads"
    "Table V: reconfiguration overheads"
    "Ablation: regularisation weight"
    "Ablation: good-set threshold"
    "Ablation: advanced counter groups"
    "Sec. VIII model implementation study"
    "Future-work study: per-structure adaptation demand")
set(prev -1)
foreach(heading IN LISTS headings)
    string(FIND "${out}" "${heading}" pos)
    if(pos LESS_EQUAL prev)
        message(FATAL_ERROR
            "heading '${heading}' missing or out of order:\n${out}")
    endif()
    set(prev ${pos})
endforeach()

execute_process(COMMAND ${PAPER} no_such_section
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "paper accepted an unknown section")
endif()
foreach(expected "unknown section 'no_such_section'"
        "table1_design_space" "ablation_adaptation_rate")
    string(FIND "${err}" "${expected}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "missing '${expected}' in:\n${err}")
    endif()
endforeach()
