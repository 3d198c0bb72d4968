# clang-format drift check, wired as the `format_check` ctest (see the
# top-level CMakeLists.txt).  Run as:
#   cmake -DCLANG_FORMAT=... -DSOURCE_DIR=... [-DFORMAT_FATAL=ON]
#         -P tools/format_check.cmake
#
# Two modes:
#   FORMAT_FATAL=OFF (default)  drift is reported, never fails.  Used
#       when the detected clang-format major differs from the pin in
#       tools/format_version (cross-major output differs spuriously) or
#       the one-time blessed reformat pass has not landed yet
#       (tools/.format_blessed absent).
#   FORMAT_FATAL=ON   any drift fails the test.  The top-level
#       CMakeLists.txt turns this on automatically once the pinned major
#       is the one installed AND tools/.format_blessed exists — i.e.
#       from the commit that lands `tools/format_all.sh --bless` onward,
#       format_check is a hard CI failure.

file(GLOB_RECURSE files RELATIVE ${SOURCE_DIR}
    ${SOURCE_DIR}/src/*.h ${SOURCE_DIR}/src/*.cc
    ${SOURCE_DIR}/bench/*.h ${SOURCE_DIR}/bench/*.cc
    ${SOURCE_DIR}/tests/*.h ${SOURCE_DIR}/tests/*.cc
    ${SOURCE_DIR}/examples/*.cc ${SOURCE_DIR}/examples/*.cpp)

set(drifted 0)
set(checked 0)
foreach(f ${files})
    if(f MATCHES "analysis_fixtures|/build")
        continue()
    endif()
    math(EXPR checked "${checked}+1")
    execute_process(
        COMMAND ${CLANG_FORMAT} --dry-run ${SOURCE_DIR}/${f}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT err STREQUAL "")
        math(EXPR drifted "${drifted}+1")
        message(STATUS "format drift: ${f}")
    endif()
endforeach()

if(FORMAT_FATAL AND drifted GREATER 0)
    message(FATAL_ERROR
        "format_check: ${drifted}/${checked} file(s) differ from "
        ".clang-format under the pinned clang-format major "
        "(tools/format_version); run tools/format_all.sh")
endif()
if(FORMAT_FATAL)
    message(STATUS "format_check: ${drifted}/${checked} file(s) drifted "
                   "(enforced: pinned major + blessed pass landed)")
else()
    message(STATUS "format_check: ${drifted}/${checked} file(s) differ from "
                   ".clang-format (informational: unpinned clang-format "
                   "major or blessed pass not landed yet)")
endif()
