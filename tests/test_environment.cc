/**
 * @file
 * The global test environment of both test binaries: the
 * process-wide result cache is parked off before any test runs, so a
 * test that sweeps through the runner checks the simulator, not the
 * entries an earlier run left in its working directory. Tests of the
 * cache turn it on against their own temp directories.
 */

#include <gtest/gtest.h>

#include "runner/cache_store.hh"

namespace kagura
{
namespace
{

class CacheOffEnvironment : public testing::Environment
{
  public:
    void
    SetUp() override
    {
        runner::CacheStore::global().setEnabled(false);
    }
};

// Registered before gtest_main runs the tests.
testing::Environment *const cacheOff =
    testing::AddGlobalTestEnvironment(new CacheOffEnvironment);

} // namespace
} // namespace kagura
