#include "json/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace rstore {
namespace json {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  out->append(JsonEscape(s));
  out->push_back('"');
}

void AppendNumber(std::string* out, const Value& v) {
  if (v.is_int()) {
    out->append(std::to_string(v.as_int()));
    return;
  }
  double d = v.as_double();
  if (!std::isfinite(d)) {
    out->append("null");  // JSON has no Inf/NaN.
    return;
  }
  char buf[32];
  // %.17g round-trips any double; trim to shortest via %g first.
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

void Write(std::string* out, const Value& v, int indent, int depth) {
  auto newline = [&] {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * (depth + 1)), ' ');
    }
  };
  auto closing_newline = [&] {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  switch (v.type()) {
    case Value::Type::kNull:
      out->append("null");
      break;
    case Value::Type::kBool:
      out->append(v.as_bool() ? "true" : "false");
      break;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      AppendNumber(out, v);
      break;
    case Value::Type::kString:
      AppendEscaped(out, v.as_string());
      break;
    case Value::Type::kArray: {
      const auto& items = v.as_array();
      if (items.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i) out->push_back(',');
        newline();
        Write(out, items[i], indent, depth + 1);
      }
      closing_newline();
      out->push_back(']');
      break;
    }
    case Value::Type::kObject: {
      const auto& members = v.as_object();
      if (members.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : members) {
        if (!first) out->push_back(',');
        first = false;
        newline();
        AppendEscaped(out, key);
        out->push_back(':');
        if (indent >= 0) out->push_back(' ');
        Write(out, member, indent, depth + 1);
      }
      closing_newline();
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string WriteCompact(const Value& value) {
  std::string out;
  Write(&out, value, -1, 0);
  return out;
}

std::string WritePretty(const Value& value) {
  std::string out;
  Write(&out, value, 2, 0);
  return out;
}

}  // namespace json
}  // namespace rstore
