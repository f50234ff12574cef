/**
 * @file
 * The line-level grammar of hwdb GPU config files: gpgpusim-flavoured
 * "key value" / "key=value" lines with '#'/';' comments and a
 * tolerated leading '-'. The key schema and its semantics live in
 * HwConfigFile; this layer only turns text into (key, value, lineno)
 * triples with uniform error reporting.
 */

#ifndef GSUITE_HWDB_KEYVALUEFILE_HPP
#define GSUITE_HWDB_KEYVALUEFILE_HPP

#include <string>
#include <vector>

namespace gsuite {

/** One parsed "key value" line. */
struct KeyValueLine {
    std::string key;
    std::string value;
    int lineno = 0; ///< 1-based, for error messages
};

/**
 * Parse config text into key/value lines. @p origin labels error
 * messages (a path or "<string>"). fatal() on lines that are neither
 * blank, comment, nor key/value shaped, and on empty keys or values.
 */
std::vector<KeyValueLine>
parseKeyValueText(const std::string &text, const std::string &origin);

/** Shortest decimal string that round-trips @p v exactly — the
 *  canonical rendering for double-valued config keys. */
std::string fmtTrimmedDouble(double v);

} // namespace gsuite

#endif // GSUITE_HWDB_KEYVALUEFILE_HPP
