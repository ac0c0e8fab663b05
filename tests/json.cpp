#include "json.hpp"

#include <cctype>
#include <cstdlib>

namespace rg::test {

const JsonValue* JsonValue::get(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  auto it = members.find(key);
  return it == members.end() ? nullptr : it->second.get();
}

const JsonValue* JsonValue::at(std::size_t index) const {
  if (type != Type::Array || index >= items.size()) return nullptr;
  return items[index].get();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    JsonPtr v = value();
    if (!error_.empty()) {
      result.error = error_ + " at offset " + std::to_string(pos_);
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error =
          "trailing content at offset " + std::to_string(pos_);
      return result;
    }
    result.value = std::move(v);
    return result;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonPtr value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        if (literal("null")) return std::make_shared<JsonValue>();
        fail("bad literal");
        return nullptr;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return number();
        fail(std::string("unexpected character '") + c + "'");
        return nullptr;
    }
  }

  JsonPtr boolean() {
    auto v = std::make_shared<JsonValue>();
    v->type = JsonValue::Type::Bool;
    if (literal("true")) {
      v->boolean = true;
      return v;
    }
    if (literal("false")) {
      v->boolean = false;
      return v;
    }
    fail("bad literal");
    return nullptr;
  }

  JsonPtr number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (consume('.')) {
      integral = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      fail("bad number");
      return nullptr;
    }
    auto v = std::make_shared<JsonValue>();
    v->type = JsonValue::Type::Number;
    v->number = std::strtod(token.c_str(), nullptr);
    v->is_integer = integral;
    v->integer = integral
                     ? std::strtoll(token.c_str(), nullptr, 10)
                     : static_cast<std::int64_t>(v->number);
    return v;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
              return false;
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // produced by this repo's emitters so are passed through raw.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  JsonPtr string_value() {
    auto v = std::make_shared<JsonValue>();
    v->type = JsonValue::Type::String;
    if (!parse_string(v->string)) return nullptr;
    return v;
  }

  JsonPtr array() {
    consume('[');
    auto v = std::make_shared<JsonValue>();
    v->type = JsonValue::Type::Array;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      JsonPtr item = value();
      if (item == nullptr) return nullptr;
      v->items.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return v;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return nullptr;
      }
    }
  }

  JsonPtr object() {
    consume('{');
    auto v = std::make_shared<JsonValue>();
    v->type = JsonValue::Type::Object;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return nullptr;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return nullptr;
      }
      JsonPtr member = value();
      if (member == nullptr) return nullptr;
      if (v->members.emplace(key, std::move(member)).second)
        v->keys.push_back(key);
      skip_ws();
      if (consume('}')) return v;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return nullptr;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace rg::test
