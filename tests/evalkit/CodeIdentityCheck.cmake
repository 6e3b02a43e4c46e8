# Checks evalkit/CodeIdentity.cmake on a throwaway source tree: the
# identity follows what the hashed files say, never where the tree lives
# or the order the files are listed in, and an unchanged identity leaves
# the header untouched so nothing downstream rebuilds.
#
#   cmake -DSCRIPT=<CodeIdentity.cmake> -DWORK=<scratch dir> -P CodeIdentityCheck.cmake
file(REMOVE_RECURSE "${WORK}")

function(write_tree Root Add)
  file(WRITE "${Root}/jit/A.cpp" "int a() { return ${Add}; }\n")
  file(WRITE "${Root}/vm/B.h" "int b();\n")
endfunction()

# Runs the script over ROOT with FILES and sets <Out> to the header text.
function(identity Root Files Out)
  set(Header "${WORK}/out/CodeIdentity.h")
  execute_process(COMMAND "${CMAKE_COMMAND}" -DROOT=${Root} -DFILES=${Files}
                          -DOUT=${Header} -P "${SCRIPT}"
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "CodeIdentity.cmake failed (${Rc}) on ${Root}")
  endif()
  file(READ "${Header}" Text)
  string(REGEX MATCH "0x[0-9a-f]+ull" Value "${Text}")
  if(NOT Value MATCHES "^0x[0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f][0-9a-f]ull$")
    message(FATAL_ERROR "no 16-hex identity in the header:\n${Text}")
  endif()
  set(${Out} "${Value}" PARENT_SCOPE)
endfunction()

write_tree("${WORK}/one" 1)
identity("${WORK}/one" "jit/A.cpp|vm/B.h" Base)

# The same content under another root, listed in another order.
write_tree("${WORK}/two" 1)
identity("${WORK}/two" "vm/B.h|jit/A.cpp" Moved)
if(NOT Moved STREQUAL Base)
  message(FATAL_ERROR "identity depends on path or order: ${Base} vs ${Moved}")
endif()

# An unchanged identity leaves the header alone; a stale one is replaced.
set(Header "${WORK}/out/CodeIdentity.h")
file(TIMESTAMP "${Header}" Before "%s" UTC)
execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 1.1)
identity("${WORK}/two" "jit/A.cpp|vm/B.h" Again)
file(TIMESTAMP "${Header}" After "%s" UTC)
if(NOT Again STREQUAL Base OR NOT After STREQUAL Before)
  message(FATAL_ERROR "an unchanged identity rewrote the header")
endif()
file(WRITE "${Header}" "stale\n")
identity("${WORK}/two" "jit/A.cpp|vm/B.h" Again)
if(NOT Again STREQUAL Base)
  message(FATAL_ERROR "a stale header was kept")
endif()

# A file outside the list (a service source, say) does not count.
file(WRITE "${WORK}/one/service/C.cpp" "int c();\n")
identity("${WORK}/one" "jit/A.cpp|vm/B.h" Unlisted)
if(NOT Unlisted STREQUAL Base)
  message(FATAL_ERROR "an unlisted file changed the identity")
endif()

# Editing one hashed file changes the identity.
write_tree("${WORK}/one" 2)
identity("${WORK}/one" "jit/A.cpp|vm/B.h" Edited)
if(Edited STREQUAL Base)
  message(FATAL_ERROR "editing jit/A.cpp kept the identity ${Base}")
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS "code identity ${Base}, edited ${Edited}")
