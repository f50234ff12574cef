#include "hwdb/KeyValueFile.hpp"

#include <cstdio>
#include <sstream>

#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

namespace {

/**
 * Strip trailing "# ..." comments. '#' only starts a comment at the
 * line start or after whitespace, so a value like "name RTX#2060"
 * survives the serialize -> parse round trip.
 */
std::string
stripComment(const std::string &line)
{
    for (size_t i = 0; i < line.size(); ++i)
        if (line[i] == '#' &&
            (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t'))
            return line.substr(0, i);
    return line;
}

} // namespace

std::vector<KeyValueLine>
parseKeyValueText(const std::string &text, const std::string &origin)
{
    std::vector<KeyValueLine> lines;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string t = trim(stripComment(line));
        if (t.empty() || t[0] == ';')
            continue;
        if (t[0] == '-')
            t = trim(t.substr(1)); // gpgpusim "-key value" flavour

        // Split into key and value on '=' or the first whitespace.
        std::string key, value;
        const size_t eq = t.find('=');
        if (eq != std::string::npos) {
            key = trim(t.substr(0, eq));
            value = trim(t.substr(eq + 1));
        } else {
            const size_t sp = t.find_first_of(" \t");
            if (sp == std::string::npos)
                fatal("%s:%d: expected 'key value' or 'key=value', "
                      "got '%s'",
                      origin.c_str(), lineno, t.c_str());
            key = trim(t.substr(0, sp));
            value = trim(t.substr(sp + 1));
        }
        if (key.empty() || value.empty())
            fatal("%s:%d: empty key or value in '%s'", origin.c_str(),
                  lineno, t.c_str());
        lines.push_back(KeyValueLine{key, value, lineno});
    }
    return lines;
}

std::string
fmtTrimmedDouble(double v)
{
    // Shortest representation that round-trips a double exactly.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double reparsed;
    for (int prec = 1; prec < 17; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        if (parseDouble(probe, reparsed) && reparsed == v)
            return probe;
    }
    return buf;
}

} // namespace gsuite
