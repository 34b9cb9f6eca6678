#include "src/runner/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/runner/seed.h"
#include "src/util/decimal.h"

namespace specbench {

namespace {

constexpr char kHeaderMagic[] = "spectrebench-journal v1";

// Strings (cpu/config/workload/metric names) ride in a tab-separated payload;
// percent-encode the separator and line-framing bytes so any name round-trips.
std::string Encode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '%' || c == '\t' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

bool Decode(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) {
      return false;
    }
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

// Doubles are framed as the hex of their bit pattern: bit-exact round trip,
// which the byte-identical merge contract depends on (%.17g would survive a
// round trip too, but bit framing makes the invariant unmissable).
uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string U64Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

bool ParseU64Hex(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 16) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::vector<std::string> SplitTabs(const std::string& payload) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t tab = payload.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(payload.substr(start));
      return fields;
    }
    fields.push_back(payload.substr(start, tab - start));
    start = tab + 1;
  }
}

bool ParseHeaderLine(const std::string& line, JournalHeader* header) {
  const std::string magic(kHeaderMagic);
  if (line.rfind(magic + " base_seed=", 0) != 0) {
    return false;
  }
  std::string rest = line.substr(magic.size() + std::string(" base_seed=").size());
  const size_t grid_at = rest.find(" grid=");
  if (grid_at == std::string::npos) {
    return false;
  }
  const size_t cells_at = rest.find(" cells=", grid_at);
  if (cells_at == std::string::npos) {
    return false;
  }
  return ParseU64Strict(rest.substr(0, grid_at), &header->base_seed) &&
         ParseU64Hex(rest.substr(grid_at + 6, cells_at - grid_at - 6), &header->grid_digest) &&
         ParseU64Strict(rest.substr(cells_at + 7), &header->total_cells);
}

}  // namespace

std::string SerializeJournalHeader(const JournalHeader& header) {
  std::ostringstream out;
  out << kHeaderMagic << " base_seed=" << header.base_seed << " grid=" << U64Hex(header.grid_digest)
      << " cells=" << header.total_cells;
  return out.str();
}

std::string SerializeCellRecord(size_t index, const SweepCellResult& cell) {
  std::ostringstream payload;
  payload << index << '\t' << cell.seed << '\t' << Encode(cell.key.cpu) << '\t'
          << Encode(cell.key.config) << '\t' << Encode(cell.key.workload) << '\t'
          << cell.output.samples << '\t' << (cell.output.converged ? 1 : 0) << '\t'
          << (cell.output.saw_non_finite ? 1 : 0) << '\t' << cell.output.metrics.size();
  for (const CellMetric& metric : cell.output.metrics) {
    payload << '\t' << Encode(metric.id) << '\t' << Encode(metric.label) << '\t'
            << U64Hex(DoubleBits(metric.estimate.value)) << '\t'
            << U64Hex(DoubleBits(metric.estimate.ci95));
  }
  const std::string text = payload.str();
  return "cell " + U64Hex(Fnv1a64(text)) + " " + text;
}

bool ParseCellRecord(const std::string& line, size_t* index, SweepCellResult* cell,
                     std::string* error) {
  if (line.rfind("cell ", 0) != 0) {
    *error = "not a cell record";
    return false;
  }
  const size_t payload_at = line.find(' ', 5);
  if (payload_at == std::string::npos) {
    *error = "missing payload";
    return false;
  }
  uint64_t checksum = 0;
  if (!ParseU64Hex(line.substr(5, payload_at - 5), &checksum)) {
    *error = "bad checksum field";
    return false;
  }
  const std::string payload = line.substr(payload_at + 1);
  if (Fnv1a64(payload) != checksum) {
    *error = "checksum mismatch";
    return false;
  }
  const std::vector<std::string> fields = SplitTabs(payload);
  if (fields.size() < 9) {
    *error = "short payload";
    return false;
  }
  uint64_t index64 = 0;
  uint64_t samples = 0;
  uint64_t converged = 0;
  uint64_t non_finite = 0;
  uint64_t nmetrics = 0;
  SweepCellResult parsed;
  if (!ParseU64Strict(fields[0], &index64) || !ParseU64Strict(fields[1], &parsed.seed) ||
      !Decode(fields[2], &parsed.key.cpu) || !Decode(fields[3], &parsed.key.config) ||
      !Decode(fields[4], &parsed.key.workload) || !ParseU64Strict(fields[5], &samples) ||
      !ParseU64Strict(fields[6], &converged) || converged > 1 ||
      !ParseU64Strict(fields[7], &non_finite) || non_finite > 1 ||
      !ParseU64Strict(fields[8], &nmetrics)) {
    *error = "malformed payload";
    return false;
  }
  // Divide rather than multiply: a huge count must not wrap into a match.
  if ((fields.size() - 9) % 4 != 0 || (fields.size() - 9) / 4 != nmetrics) {
    *error = "metric count disagrees with payload";
    return false;
  }
  parsed.output.samples = static_cast<size_t>(samples);
  parsed.output.converged = converged == 1;
  parsed.output.saw_non_finite = non_finite == 1;
  parsed.output.metrics.reserve(nmetrics);
  for (uint64_t m = 0; m < nmetrics; m++) {
    const size_t base = 9 + m * 4;
    CellMetric metric;
    uint64_t value_bits = 0;
    uint64_t ci_bits = 0;
    if (!Decode(fields[base], &metric.id) || !Decode(fields[base + 1], &metric.label) ||
        !ParseU64Hex(fields[base + 2], &value_bits) || !ParseU64Hex(fields[base + 3], &ci_bits)) {
      *error = "malformed metric";
      return false;
    }
    metric.estimate.value = DoubleFromBits(value_bits);
    metric.estimate.ci95 = DoubleFromBits(ci_bits);
    parsed.output.metrics.push_back(std::move(metric));
  }
  *index = static_cast<size_t>(index64);
  *cell = std::move(parsed);
  return true;
}

bool LoadCheckpoint(const std::string& path, CheckpointData* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  CheckpointData data;
  std::map<size_t, std::string> raw_records;
  size_t offset = 0;
  bool have_header = false;
  while (offset < text.size()) {
    const size_t newline = text.find('\n', offset);
    if (newline == std::string::npos) {
      // Torn final write: no newline ever made it to disk. Only legal at
      // the tail (which this is, by construction of the loop).
      data.truncated_tail = true;
      break;
    }
    const std::string line = text.substr(offset, newline - offset);
    const size_t line_end = newline + 1;
    if (!have_header) {
      if (!ParseHeaderLine(line, &data.header)) {
        *error = path + ": bad journal header";
        return false;
      }
      have_header = true;
      data.valid_bytes = line_end;
      offset = line_end;
      continue;
    }
    size_t index = 0;
    SweepCellResult cell;
    std::string record_error;
    if (!ParseCellRecord(line, &index, &cell, &record_error)) {
      if (line_end >= text.size()) {
        // Corrupt *final* record with a newline: a torn write that happened
        // to contain 0x0a. Tolerated exactly like a missing newline.
        data.truncated_tail = true;
        break;
      }
      *error = path + ": corrupt record mid-journal (" + record_error + ")";
      return false;
    }
    if (index >= data.header.total_cells) {
      *error = path + ": record index out of range for grid";
      return false;
    }
    auto existing = raw_records.find(index);
    if (existing != raw_records.end()) {
      if (existing->second != line) {
        *error = path + ": conflicting duplicate record for cell " + std::to_string(index);
        return false;
      }
      // Identical duplicate (a resumed shard re-appended nothing new): fine.
    } else {
      raw_records.emplace(index, line);
      data.cells.emplace(index, std::move(cell));
    }
    data.valid_bytes = line_end;
    offset = line_end;
  }
  if (!have_header) {
    *error = path + ": empty or truncated before header";
    return false;
  }
  *out = std::move(data);
  return true;
}

CheckpointWriter::~CheckpointWriter() { Close(); }

void CheckpointWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool CheckpointWriter::Create(const std::string& path, const JournalHeader& header,
                              std::string* error) {
  Close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    *error = "cannot create " + path + ": " + std::strerror(errno);
    return false;
  }
  const std::string line = SerializeJournalHeader(header) + "\n";
  if (::write(fd_, line.data(), line.size()) != static_cast<ssize_t>(line.size()) ||
      ::fsync(fd_) != 0) {
    *error = "cannot write journal header to " + path;
    Close();
    return false;
  }
  return true;
}

bool CheckpointWriter::OpenForResume(const std::string& path, const JournalHeader& header,
                                     const CheckpointData& loaded, std::string* error) {
  Close();
  if (!(loaded.header == header)) {
    *error = path + ": journal was written for a different grid or base seed";
    return false;
  }
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  // Cut off any torn tail so the next record starts on a fresh line.
  if (::ftruncate(fd_, static_cast<off_t>(loaded.valid_bytes)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    *error = "cannot truncate torn tail of " + path;
    Close();
    return false;
  }
  return true;
}

bool CheckpointWriter::Append(size_t index, const SweepCellResult& cell) {
  if (fd_ < 0) {
    return false;
  }
  const std::string line = SerializeCellRecord(index, cell) + "\n";
  // One write + one fsync per record: either the whole framed record is
  // durable or the checksum exposes the torn tail on reload.
  return ::write(fd_, line.data(), line.size()) == static_cast<ssize_t>(line.size()) &&
         ::fsync(fd_) == 0;
}

bool OverlayCheckpoint(const CheckpointData& data, SweepResult* result, std::string* error) {
  for (const auto& [index, cell] : data.cells) {
    if (index >= result->cells.size()) {
      *error = "checkpointed cell index out of range";
      return false;
    }
    SweepCellResult* slot = &result->cells[index];
    if (slot->key.cpu != cell.key.cpu || slot->key.config != cell.key.config ||
        slot->key.workload != cell.key.workload || slot->seed != cell.seed) {
      *error = "checkpointed cell " + std::to_string(index) +
               " does not match the grid (key or seed differs)";
      return false;
    }
    *slot = cell;
  }
  return true;
}

bool MergeCheckpoints(const std::vector<std::string>& paths, SweepResult* out,
                      std::string* error) {
  if (paths.empty()) {
    *error = "no journals to merge";
    return false;
  }
  JournalHeader header;
  std::map<size_t, SweepCellResult> cells;
  std::map<size_t, std::string> canonical;  // re-serialized, for duplicate checks
  for (size_t p = 0; p < paths.size(); p++) {
    CheckpointData data;
    if (!LoadCheckpoint(paths[p], &data, error)) {
      return false;
    }
    if (p == 0) {
      header = data.header;
    } else if (!(data.header == header)) {
      *error = paths[p] + ": journal header disagrees with " + paths[0] +
               " (different grid, base seed, or cell count)";
      return false;
    }
    for (auto& [index, cell] : data.cells) {
      const std::string record = SerializeCellRecord(index, cell);
      auto existing = canonical.find(index);
      if (existing != canonical.end()) {
        if (existing->second != record) {
          *error = "conflicting results for cell " + std::to_string(index) + " across journals";
          return false;
        }
        continue;
      }
      canonical.emplace(index, record);
      cells.emplace(index, std::move(cell));
    }
  }
  if (cells.size() != header.total_cells) {
    *error = "merge is incomplete: " + std::to_string(cells.size()) + " of " +
             std::to_string(header.total_cells) + " cells present";
    return false;
  }
  SweepResult result;
  result.base_seed = header.base_seed;
  result.cells.reserve(cells.size());
  for (auto& [index, cell] : cells) {
    (void)index;
    result.cells.push_back(std::move(cell));
  }
  *out = std::move(result);
  return true;
}

}  // namespace specbench
