#ifndef GIGASCOPE_COMMON_JSON_H_
#define GIGASCOPE_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace gigascope {

/// `s` as a JSON string literal: quoted, with `"`, `\`, `\n`, `\r` and `\t`
/// escaped by name and the other control bytes (< 0x20) as `\u00XX`. Bytes
/// >= 0x80 pass through unchanged, so UTF-8 input stays UTF-8.
std::string JsonQuote(std::string_view s);

}  // namespace gigascope

#endif  // GIGASCOPE_COMMON_JSON_H_
