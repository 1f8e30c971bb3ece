#include "util/byte_reader.hpp"

#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace csb {

void ByteReader::fail_at(std::uint64_t offset, std::string_view what) const {
  throw CsbError(name_ + "@" + std::to_string(offset) + ": " +
                 std::string(what));
}

void ByteReader::fail_short(std::uint64_t count, std::size_t width) const {
  fail("truncated: " + std::to_string(count) + " x " + std::to_string(width) +
       " bytes needed, " + std::to_string(remaining()) + " left");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in.is_open()) throw CsbError("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in.gcount()) != size) {
    throw CsbError("failed reading " + path);
  }
  return bytes;
}

}  // namespace csb
