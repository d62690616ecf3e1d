#ifndef ARK_SUPPORT_LOGGING_H
#define ARK_SUPPORT_LOGGING_H

/**
 * @file
 * Status-message and invariant helpers.
 *
 * Following the gem5 convention: inform() reports normal operating
 * status, warn() flags suspicious-but-survivable conditions, and
 * panic() aborts on conditions that indicate a bug in Ark itself.
 * User mistakes should raise ArkError subclasses instead of panicking.
 */

#include <charconv>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace ark::support {

/** Verbosity levels for the global logger. */
enum class LogLevel : int {
    Quiet = 0,  ///< Suppress inform(); warnings still print.
    Normal = 1, ///< inform() and warn() print.
    Debug = 2,  ///< Also print debug() messages.
};

/** Sets the process-wide log level. */
void setLogLevel(LogLevel level);

/** Returns the process-wide log level. */
LogLevel logLevel();

/** Prints an informational status message to stderr. */
void inform(const std::string &message);

/** Prints a warning to stderr; never stops execution. */
void warn(const std::string &message);

/** Prints a debug message when the level is Debug. */
void debug(const std::string &message);

/**
 * Aborts the process after printing a message; reserved for internal
 * invariant violations (never for user errors).
 */
[[noreturn]] void panic(const std::string &message);

/**
 * panic() when the condition holds. The message is a view, so a
 * literal argument allocates nothing unless the check fires.
 */
inline void
panicIf(bool condition, std::string_view message)
{
    if (condition)
        panic(std::string(message));
}

namespace detail {

/** A cat() piece appended as-is: a string, a literal or a view. */
template <typename T>
inline constexpr bool kCatText =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<T, const char *> || std::is_same_v<T, char *>;

/** A cat() piece appended as decimal digits: an integer the stream
 *  prints as a number (character types and bool it does not). */
template <typename T>
inline constexpr bool kCatDigits =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
    !std::is_same_v<T, unsigned char> && !std::is_same_v<T, wchar_t> &&
    !std::is_same_v<T, char8_t> && !std::is_same_v<T, char16_t> &&
    !std::is_same_v<T, char32_t>;

/** Longest decimal rendering of an integer type, sign included. */
template <typename T>
inline constexpr std::size_t kCatDigitsMax =
    std::numeric_limits<T>::digits10 + 3;

template <typename T>
std::size_t
catBound(const T &piece)
{
    if constexpr (kCatDigits<T>)
        return kCatDigitsMax<T>;
    else
        return std::string_view(piece).size();
}

template <typename T>
void
catAppend(std::string &out, const T &piece)
{
    if constexpr (kCatDigits<T>) {
        char digits[kCatDigitsMax<T>];
        out.append(digits,
                   std::to_chars(digits, digits + sizeof digits, piece).ptr);
    } else {
        out.append(std::string_view(piece));
    }
}

} // namespace detail

/**
 * Builds a string from stream-insertable pieces:
 * cat("x=", 3, " y=", 4.5) == "x=3 y=4.5".
 *
 * The output is always what an std::ostringstream prints. When every
 * piece is text (std::string, a literal, std::string_view) or a
 * non-character integer, as element names such as cat("CPL_", k)
 * are, the pieces are appended straight into the string with no
 * stream; any other piece (double, char, bool, Value, ...) formats
 * the whole call through the stream.
 */
template <typename... Args>
std::string
cat(Args &&...args)
{
    if constexpr (((detail::kCatText<std::decay_t<Args>> ||
                    detail::kCatDigits<std::decay_t<Args>>) &&
                   ...)) {
        std::string out;
        out.reserve((detail::catBound<std::decay_t<Args>>(args) + ... +
                     std::size_t{0}));
        (detail::catAppend<std::decay_t<Args>>(out, args), ...);
        return out;
    } else {
        std::ostringstream oss;
        (oss << ... << std::forward<Args>(args));
        return oss.str();
    }
}

} // namespace ark::support

#endif // ARK_SUPPORT_LOGGING_H
