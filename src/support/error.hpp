#ifndef RAW_SUPPORT_ERROR_HPP
#define RAW_SUPPORT_ERROR_HPP

/**
 * @file
 * Error reporting for the RawCC toolchain.
 *
 * Follows the gem5 fatal()/panic() discipline:
 *  - fatal():  the input program or configuration is at fault; the tool
 *              cannot continue (throws raw::FatalError, a normal failure).
 *  - panic():  an internal invariant was violated (a RawCC bug); throws
 *              raw::PanicError so tests can assert on internal checks.
 */

#include <stdexcept>
#include <string>

namespace raw {

/** Error caused by bad user input (source program, config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Error caused by an internal compiler/simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Report a user-caused error: throws FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal bug: throws PanicError. */
[[noreturn]] void panic(const std::string &msg);

/** Assert an internal invariant; panics with @p msg when @p cond is false. */
inline void
check(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

/**
 * check() with a literal message: the std::string is built only on
 * failure, so a passing check in a hot loop never allocates.
 */
inline void
check(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace raw

#endif // RAW_SUPPORT_ERROR_HPP
