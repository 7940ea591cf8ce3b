/**
 * @file
 * Test helper: a scratch directory path private to this process.
 *
 * Tests that write stores, memo indexes or trace files remove their
 * directory before and after use.  A fixed path would let two test
 * runs at once (say a sanitizer build's and the main build's) delete
 * each other's files, so every path carries the process id.
 */

#ifndef ADAPTSIM_TESTS_SCRATCH_DIR_HH
#define ADAPTSIM_TESTS_SCRATCH_DIR_HH

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace adaptsim::test
{

/** `testing::TempDir()/<name>-<pid>`; nothing is created. */
inline std::string
scratchDir(const std::string &name)
{
    return (std::filesystem::path(testing::TempDir()) /
            (name + "-" + std::to_string(::getpid())))
        .string();
}

} // namespace adaptsim::test

#endif // ADAPTSIM_TESTS_SCRATCH_DIR_HH
