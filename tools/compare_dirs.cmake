# Byte-compares two persistence directories: both must hold the same
# set of files (every shard's update.log and retained snap-*.img), and
# each pair must be identical. Two runs of one seeded
# config write the same bytes, so any difference is a determinism bug
# in the write path.
#
# Usage: cmake -DA=<dir> -DB=<dir> [-DREQUIRE=<file;...>] -P compare_dirs.cmake
# (REQUIRE names files, relative to the directories, that must exist.)
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED A OR NOT DEFINED B)
  message(FATAL_ERROR "pass -DA=<dir> -DB=<dir>")
endif()

file(GLOB_RECURSE files_a RELATIVE "${A}" "${A}/*")
file(GLOB_RECURSE files_b RELATIVE "${B}" "${B}/*")
list(SORT files_a)
list(SORT files_b)
if(NOT files_a)
  message(FATAL_ERROR "no files under ${A}")
endif()
foreach(f IN LISTS REQUIRE)
  if(NOT f IN_LIST files_a)
    message(FATAL_ERROR "${A}/${f} was not written")
  endif()
endforeach()
if(NOT files_a STREQUAL files_b)
  message(FATAL_ERROR "file sets differ:\n  ${A}: ${files_a}\n  ${B}: ${files_b}")
endif()

foreach(f IN LISTS files_a)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${A}/${f}" "${B}/${f}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${f} differs between ${A} and ${B}")
  endif()
endforeach()
list(LENGTH files_a n)
message(STATUS "${n} files identical: ${files_a}")
