# ctest helper: the record/replay workflow through csmcli.
#
#   stream --record -> replay --sig-out  (signatures byte-identical to the
#   live run: the recording holds exactly what the engine ingested, and the
#   replay refits the same method on the same bytes)
#
#   replay x2                            (replay is deterministic: two
#   replays of one recording produce byte-identical signature files)
#
#   replay --scenario                    (fault injection perturbs the
#   signatures; the clean recording on disk is untouched; and it matches
#   the same scenario applied by `record`, models fixed by a pack)
#
# plus a corrupt-fixture check that a wrong-magic file is rejected with the
# error named. Window/step are passed explicitly everywhere: `stream`
# defaults to the segment's wl/ws while `replay` defaults to 60/10, and
# byte-identity needs both engines configured alike. Run with:
#   cmake -DCSMCLI=... -DWORK_DIR=... -P record_replay.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_step(<label> zero|nonzero <expected-output-regex> <command...>)
function(run_step label expect_rc expect_out)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(APPEND out "${err}")
  if(expect_rc STREQUAL "zero" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected success, got ${rc}:\n${out}")
  endif()
  if(expect_rc STREQUAL "nonzero" AND rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected failure, got exit 0:\n${out}")
  endif()
  if(NOT expect_out STREQUAL "" AND NOT out MATCHES "${expect_out}")
    message(FATAL_ERROR
      "${label}: output does not match \"${expect_out}\":\n${out}")
  endif()
endfunction()

function(require_identical label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ")
  endif()
endfunction()

function(require_different label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} are identical")
  endif()
endfunction()

set(flags --scale 0.2 --window 60 --step 10 --history 256)

# Live run, tapped: the capture holds exactly what the engine ingested.
run_step(stream_record zero "recorded [0-9]+ batches"
  "${CSMCLI}" stream fault ${flags}
  --record "${WORK_DIR}/capture.csmr" --sig-out "${WORK_DIR}/live.sigs")

# Replaying the capture with the same engine flags refits the same method
# on the same bytes: the signature stream must match the live run exactly.
run_step(replay_capture zero "recording .*: [0-9]+ nodes, [0-9]+ batches"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --sig-out "${WORK_DIR}/replay.sigs")
require_identical(live_vs_replay
  "${WORK_DIR}/live.sigs" "${WORK_DIR}/replay.sigs")

# Replay determinism: a second replay is byte-identical to the first.
run_step(replay_again zero ""
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --sig-out "${WORK_DIR}/replay2.sigs")
require_identical(replay_determinism
  "${WORK_DIR}/replay.sigs" "${WORK_DIR}/replay2.sigs")

# The standalone recorder writes the same batches `stream` would ingest.
run_step(record_segment zero "recorded [0-9]+ nodes x [0-9]+ samples"
  "${CSMCLI}" record fault "${WORK_DIR}/offline.csmr"
  --scale 0.2 --batch 256)
require_identical(offline_capture_matches_tap
  "${WORK_DIR}/capture.csmr" "${WORK_DIR}/offline.csmr")

# Scenario replay mutates the stream on the way in (the recording on disk
# is untouched), so the signatures must diverge from the clean replay.
run_step(replay_scenario zero "scenario: drift:at=500"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --scenario "drift:at=500,mix=0.6,gain=1.6" --seed 7
  --sig-out "${WORK_DIR}/faulted.sigs")
require_different(scenario_perturbs_signatures
  "${WORK_DIR}/replay.sigs" "${WORK_DIR}/faulted.sigs")
file(SIZE "${WORK_DIR}/capture.csmr" size_after)

# Replayed batches are read-only views into the capture, so a scenario
# replay edits a copy of each batch. Pinned against the same scenario
# applied at record time: with the models held fixed by a pack, both routes
# must feed the engine the same values and drain the same bytes.
run_step(stream_seed7 zero "recorded [0-9]+ batches"
  "${CSMCLI}" stream fault ${flags} --seed 7
  --record "${WORK_DIR}/capture7.csmr" --dump-models "${WORK_DIR}/models7")
run_step(pack_seed7 zero "packed [0-9]+ models"
  "${CSMCLI}" pack "${WORK_DIR}/models7" "${WORK_DIR}/fleet7.pack")
run_step(replay_scenario_pack zero "scenario: drift:at=500"
  "${CSMCLI}" replay "${WORK_DIR}/capture7.csmr" ${flags}
  --pack "${WORK_DIR}/fleet7.pack"
  --scenario "drift:at=500,mix=0.6,gain=1.6" --seed 7
  --sig-out "${WORK_DIR}/faulted_on_replay.sigs")
run_step(record_scenario zero "recorded [0-9]+ nodes"
  "${CSMCLI}" record fault "${WORK_DIR}/faulted7.csmr"
  --scale 0.2 --batch 256 --scenario "drift:at=500,mix=0.6,gain=1.6"
  --seed 7)
run_step(replay_faulted_capture zero ""
  "${CSMCLI}" replay "${WORK_DIR}/faulted7.csmr" ${flags}
  --pack "${WORK_DIR}/fleet7.pack"
  --sig-out "${WORK_DIR}/faulted_on_record.sigs")
require_identical(scenario_on_replay_matches_scenario_on_record
  "${WORK_DIR}/faulted_on_replay.sigs" "${WORK_DIR}/faulted_on_record.sigs")

# Drift-triggered retrain over the faulted replay still completes and
# reports the detector counters.
run_step(replay_ondrift zero
  "drift detector: [0-9]+ windows scored, [0-9]+ flagged, [0-9]+ drift retrains"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --scenario "drift:at=500,mix=0.6,gain=1.6" --seed 7
  --drift-threshold 0.5 --drift-patience 3)

# Corrupt-fixture rejection at the CLI level (bitflip/truncation CRC paths
# are pinned byte-precisely in tests/replay/recording_test.cpp and the
# fuzz/regressions/recording corpus; here the fixture must be writable from
# CMake, so it is a wrong-magic file and the named error is the contract).
file(WRITE "${WORK_DIR}/bad_magic.csmr" "XSMR-not-a-recording")
run_step(corrupt_magic_rejected nonzero "not a CSMR recording"
  "${CSMCLI}" replay "${WORK_DIR}/bad_magic.csmr" ${flags})

message(STATUS "record/replay round trip clean (capture ${size_after} bytes)")
