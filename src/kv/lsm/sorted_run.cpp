#include "kv/lsm/sorted_run.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace steins::lsm {

namespace {

Addr extent_addr(const LsmLayout& layout, const Extent& extent, std::uint64_t block) {
  return layout.arena_base() + (extent.start_block + block) * kBlockSize;
}

/// Store + persist a byte span into consecutive blocks of the extent,
/// starting at `first_block`. The span need not be block-sized; the final
/// partial block is zero-padded.
void write_span(System& sys, const LsmLayout& layout, const Extent& extent,
                std::uint64_t first_block, const std::string& bytes,
                const PersistFn& persist, const std::string& stage) {
  const std::uint64_t blocks = (bytes.size() + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    Block img = zero_block();
    const std::size_t off = b * kBlockSize;
    const std::size_t n = std::min(bytes.size() - off, kBlockSize);
    std::memcpy(img.data(), bytes.data() + off, n);
    const Addr addr = extent_addr(layout, extent, first_block + b);
    sys.store(addr, img);
    persist(addr, stage.c_str());
  }
}

/// Load `length` bytes starting `byte_offset` into the extent. Loads go
/// through the secure path block by block.
std::string read_span(System& sys, const LsmLayout& layout, const Extent& extent,
                      std::uint64_t byte_offset, std::uint64_t length) {
  std::string out;
  out.reserve(static_cast<std::size_t>(length));
  std::uint64_t block = byte_offset / kBlockSize;
  std::uint64_t in_block = byte_offset % kBlockSize;
  while (out.size() < length) {
    const Block b = sys.load(extent_addr(layout, extent, block));
    const std::uint64_t n =
        std::min<std::uint64_t>(length - out.size(), kBlockSize - in_block);
    out.append(reinterpret_cast<const char*>(b.data()) + in_block,
               static_cast<std::size_t>(n));
    in_block = 0;
    ++block;
  }
  return out;
}

}  // namespace

void run_image_append(RunImage* image, std::uint64_t key, WalKind kind,
                      const std::string& value, std::size_t index_every) {
  if (image->entries % index_every == 0) {
    image->index.push_back(IndexEntry{key, image->data.size()});
  }
  encode_run_entry(key, kind, value, image->data);
  ++image->entries;
}

void write_run(System& sys, const LsmLayout& layout, const Extent& extent,
               std::uint64_t run_id, const RunImage& image, const PersistFn& persist,
               const char* stage_prefix) {
  STEINS_CHECK(extent.block_count >= image.blocks_needed(),
               "run extent smaller than the image");
  const std::string data_stage = std::string(stage_prefix) + "-data";
  const std::string footer_stage = std::string(stage_prefix) + "-footer";

  // Entry stream, then the sparse index at the next block boundary.
  write_span(sys, layout, extent, 0, image.data, persist, data_stage);
  std::string index_bytes;
  index_bytes.reserve(image.index.size() * kIndexEntryBytes);
  for (const IndexEntry& e : image.index) {
    put_u64(index_bytes, e.key);
    put_u64(index_bytes, e.offset);
  }
  write_span(sys, layout, extent, image.data_blocks(), index_bytes, persist,
             data_stage);

  // Footer last: it is the run's validity witness, so every data/index
  // barrier above must land before it does.
  RunFooter f;
  f.run_id = run_id;
  f.entries = image.entries;
  f.data = OffsetSize{0, image.data.size()};
  f.index = OffsetSize{image.data_blocks() * kBlockSize, index_bytes.size()};
  f.crc = run_footer_crc(f, reinterpret_cast<const std::uint8_t*>(image.data.data()),
                         reinterpret_cast<const std::uint8_t*>(index_bytes.data()));
  const Addr footer = extent_addr(layout, extent, extent.block_count - 1);
  sys.store(footer, encode_run_footer(f));
  persist(footer, footer_stage.c_str());
}

Expected<RunReader> RunReader::open(System& sys, const LsmLayout& layout,
                                    const Extent& extent, std::uint64_t expect_run_id,
                                    bool verify_checksum) {
  RunReader r;
  r.layout_ = layout;
  r.extent_ = extent;

  const Block fb = sys.load(extent_addr(layout, extent, extent.block_count - 1));
  if (!decode_run_footer(fb, &r.footer_) || r.footer_.run_id != expect_run_id) {
    return Status(ErrorCode::kIntegrity, "run footer invalid");
  }
  const std::uint64_t payload_blocks = extent.block_count - 1;
  if (r.footer_.data.length + r.footer_.index.length >
          payload_blocks * kBlockSize ||
      (r.footer_.index.offset + r.footer_.index.length + kBlockSize - 1) /
              kBlockSize >
          payload_blocks) {
    return Status(ErrorCode::kIntegrity, "run footer ranges out of extent");
  }

  const std::string index_bytes =
      read_span(sys, layout, extent, r.footer_.index.offset, r.footer_.index.length);
  if (verify_checksum) {
    const std::string data_bytes =
        read_span(sys, layout, extent, r.footer_.data.offset, r.footer_.data.length);
    const std::uint64_t crc = run_footer_crc(
        r.footer_, reinterpret_cast<const std::uint8_t*>(data_bytes.data()),
        reinterpret_cast<const std::uint8_t*>(index_bytes.data()));
    if (crc != r.footer_.crc) {
      return Status(ErrorCode::kIntegrity, "run checksum mismatch");
    }
  }

  r.index_.reserve(index_bytes.size() / kIndexEntryBytes);
  for (std::size_t off = 0; off + kIndexEntryBytes <= index_bytes.size();
       off += kIndexEntryBytes) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(index_bytes.data()) + off;
    r.index_.push_back(IndexEntry{get_u64(p), get_u64(p + 8)});
  }
  if ((r.footer_.entries == 0) != r.index_.empty()) {
    return Status(ErrorCode::kIntegrity, "run index/entry count mismatch");
  }
  if (!r.index_.empty()) {
    r.min_key_ = r.index_.front().key;
    // The last entry's key is the max; walk the final indexed segment.
    const std::string tail = read_span(sys, layout, extent, r.index_.back().offset,
                                       r.footer_.data.length - r.index_.back().offset);
    std::size_t cursor = 0;
    RunEntry e;
    std::size_t encoded = 0;
    while (cursor < tail.size()) {
      if (!decode_run_entry(reinterpret_cast<const std::uint8_t*>(tail.data()) + cursor,
                            tail.size() - cursor, &e, &encoded)) {
        return Status(ErrorCode::kIntegrity, "run tail entry malformed");
      }
      cursor += encoded;
    }
    r.max_key_ = e.key;
  }
  return r;
}

Addr RunReader::data_addr() const {
  return layout_.arena_base() + extent_.start_block * kBlockSize;
}

std::optional<RunReader::Found> RunReader::find(System& sys, std::uint64_t key) const {
  if (index_.empty() || key < min_key_ || key > max_key_) return std::nullopt;

  // Last index entry whose key <= target: scan starts at its offset and
  // ends at the next index entry's offset (or the data end).
  auto it = std::upper_bound(
      index_.begin(), index_.end(), key,
      [](std::uint64_t k, const IndexEntry& e) { return k < e.key; });
  --it;  // safe: key >= min_key_ == index_.front().key
  const std::uint64_t begin = it->offset;
  const std::uint64_t end =
      (it + 1 == index_.end()) ? footer_.data.length : (it + 1)->offset;

  // Decode forward with a one-block memo so consecutive entries sharing a
  // block cost one load. Entries can straddle blocks, so each one's bytes
  // are assembled block slice by block slice; the blocks are visited in
  // address order, so a straddling entry's header block is loaded again
  // when the memo has moved past it.
  std::uint64_t memo_block = ~std::uint64_t{0};
  Block memo{};
  std::string scratch;
  const auto span_at = [&](std::uint64_t off, std::size_t n) -> const std::uint8_t* {
    scratch.resize(n);
    for (std::size_t done = 0; done < n;) {
      const std::uint64_t blk = (off + done) / kBlockSize;
      if (blk != memo_block) {
        memo = sys.load(data_addr() + blk * kBlockSize);
        memo_block = blk;
      }
      const std::size_t in_blk = (off + done) % kBlockSize;
      const std::size_t take = std::min<std::size_t>(n - done, kBlockSize - in_blk);
      std::memcpy(scratch.data() + done, memo.data() + in_blk, take);
      done += take;
    }
    return reinterpret_cast<const std::uint8_t*>(scratch.data());
  };

  std::uint64_t cursor = begin;
  while (cursor < end) {
    const std::uint8_t* hdr = span_at(cursor, kRunEntryHeaderBytes);
    const std::uint64_t e_key = get_u64(hdr);
    const std::uint64_t kindlen = get_u64(hdr + 8);
    const std::uint64_t e_kind = kindlen >> 56;
    const std::uint64_t len = kindlen & ((std::uint64_t{1} << 48) - 1);
    if ((e_kind != 1 && e_kind != 2) || len > kMaxLsmValueBytes ||
        cursor + kRunEntryHeaderBytes + len > end) {
      throw StatusError(Status(ErrorCode::kIntegrity, "run entry malformed"));
    }
    if (e_key > key) return std::nullopt;  // sorted: passed the slot
    if (e_key == key) {
      RunEntry e;
      std::size_t encoded = 0;
      const std::uint8_t* full = span_at(cursor, kRunEntryHeaderBytes + len);
      if (!decode_run_entry(full, kRunEntryHeaderBytes + len, &e, &encoded)) {
        throw StatusError(Status(ErrorCode::kIntegrity, "run entry malformed"));
      }
      return Found{e.kind, std::move(e.value)};
    }
    cursor += kRunEntryHeaderBytes + len;
  }
  return std::nullopt;
}

std::vector<RunEntry> RunReader::load_all(System& sys) const {
  const std::string data =
      read_span(sys, layout_, extent_, footer_.data.offset, footer_.data.length);
  std::vector<RunEntry> out;
  out.reserve(static_cast<std::size_t>(footer_.entries));
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    RunEntry e;
    std::size_t encoded = 0;
    if (!decode_run_entry(reinterpret_cast<const std::uint8_t*>(data.data()) + cursor,
                          data.size() - cursor, &e, &encoded)) {
      throw StatusError(Status(ErrorCode::kIntegrity, "run entry malformed"));
    }
    out.push_back(std::move(e));
    cursor += encoded;
  }
  if (out.size() != footer_.entries) {
    throw StatusError(Status(ErrorCode::kIntegrity, "run entry count mismatch"));
  }
  return out;
}

}  // namespace steins::lsm
