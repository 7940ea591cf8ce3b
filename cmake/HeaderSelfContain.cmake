# Header self-containment check.
#
# For every public header under src/ a tiny translation unit is
# generated that includes it twice: compiling the TU proves the
# header pulls in everything it uses (self-containment) and the
# second include proves its include guard actually guards.  The
# object library builds with the rest of the tree, so a header that
# regresses fails the ordinary build, not some optional extra step.

file(GLOB_RECURSE _adaptsim_public_headers CONFIGURE_DEPENDS
    ${PROJECT_SOURCE_DIR}/src/*.hh)

set(_adaptsim_hc_dir ${CMAKE_BINARY_DIR}/header_selfcontain)
set(_adaptsim_hc_srcs)
foreach(_hdr IN LISTS _adaptsim_public_headers)
    file(RELATIVE_PATH _rel ${PROJECT_SOURCE_DIR}/src ${_hdr})
    string(REGEX REPLACE "[/.]" "_" _mangled ${_rel})
    set(_gen ${_adaptsim_hc_dir}/${_mangled}.cc)
    string(CONCAT _content
        "// Generated by HeaderSelfContain.cmake - do not edit.\n"
        "#include \"${_rel}\"\n"
        "#include \"${_rel}\" // include guard must hold\n")
    # Only rewrite on change, so reconfiguring never dirties mtimes
    # and triggers spurious rebuilds.
    set(_old "")
    if(EXISTS ${_gen})
        file(READ ${_gen} _old)
    endif()
    if(NOT _old STREQUAL _content)
        file(WRITE ${_gen} "${_content}")
    endif()
    list(APPEND _adaptsim_hc_srcs ${_gen})
endforeach()

add_library(header_selfcontain OBJECT ${_adaptsim_hc_srcs})
# Inherit the include dirs; OBJECT libraries take usage
# requirements without linking anything.
target_link_libraries(header_selfcontain PRIVATE adaptsim)
