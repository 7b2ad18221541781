#include "extmem/client.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <string>

#include "util/status.h"

namespace oem {

Status hydrate_state(ClientParams* p) {
  if (p->state_path.empty()) return Status::Ok();
  Result<FreshnessState> loaded =
      load_freshness(p->state_path, freshness_state_key(p->seed));
  if (!loaded.ok()) {
    // Absent = first boot with this path: bootstrap fresh.  Any OTHER
    // failure is an existing file that does not verify -- fail closed.
    if (loaded.status().code() == StatusCode::kIo) return Status::Ok();
    return loaded.status();
  }
  p->store_namespace = loaded->store_namespace;
  p->initial_state =
      std::make_shared<const FreshnessState>(std::move(loaded).value());
  return Status::Ok();
}

Client::Client(const ClientParams& params)
    : B_(params.block_records),
      M_(params.cache_records),
      io_batch_(params.io_batch_blocks),
      state_path_(params.state_path),
      seed_(params.seed),
      store_namespace_(params.store_namespace),
      dev_(std::make_unique<BlockDevice>(
          kBlockHeaderWords + params.block_records * kWordsPerRecord,
          params.backend, RetryPolicy{params.io_retry_attempts},
          params.pipeline_depth)),
      pool_(std::make_unique<ComputePool>(params.compute_threads)),
      enc_(rng::mix64(params.seed ^ 0x5bf0363546294ce7ULL), params.seed),
      meter_(params.cache_records, params.strict_cache),
      rng_(params.seed) {
  assert(B_ >= 1);
  assert(M_ >= 2 * B_ && "the paper assumes at least M >= 2B everywhere");
  if (io_batch_ == 0) io_batch_ = std::max<std::uint64_t>(1, m() / 4);
  wire_.resize(dev_->block_words());
  if (params.initial_state) {
    // Restart: restore the freshness state a predecessor sealed.  Versions
    // resume rollback detection, the nonce counter keeps counter-derived
    // nonces unique across process lifetimes, and the generation continues
    // monotonically so the next save supersedes the loaded file.
    dev_->set_versions(params.initial_state->versions);
    enc_.set_nonce_counter(params.initial_state->nonce_counter);
    state_generation_ = params.initial_state->generation;
  }
}

Client::~Client() {
  if (!state_path_.empty()) (void)persist_state();
}

Status Client::persist_state() {
  if (state_path_.empty())
    return Status::InvalidArgument("persist_state: no state_path configured");
  FreshnessState st;
  st.generation = ++state_generation_;
  st.nonce_counter = enc_.nonce_counter();
  st.store_namespace = store_namespace_;
  st.versions = dev_->versions();
  return save_freshness(state_path_, st, freshness_state_key(seed_));
}

ExtArray Client::alloc(std::uint64_t num_records, Init init) {
  const std::uint64_t nblocks = num_records == 0 ? 0 : ceil_div(num_records, B_);
  ExtArray a(dev_->allocate(nblocks), num_records, B_);
  if (init == Init::kEmpty && nblocks > 0) {
    // Batched counted initialization: same writes, same trace order.
    const std::uint64_t chunk = std::min<std::uint64_t>(io_batch_, nblocks);
    const std::vector<Record> empty(static_cast<std::size_t>(chunk) * B_);
    for (std::uint64_t i = 0; i < nblocks; i += chunk) {
      const std::uint64_t k = std::min(chunk, nblocks - i);
      write_blocks(a, i, k, std::span<const Record>(empty).subspan(0, k * B_));
    }
  }
  return a;
}

ExtArray Client::alloc_blocks(std::uint64_t num_blocks, Init init) {
  return alloc(num_blocks * B_, init);
}

void Client::release(const ExtArray& a) { dev_->release(a.extent()); }

std::size_t Client::crypto_grain(std::size_t nblocks) const {
  const std::size_t words = nblocks * dev_->block_words();
  const std::size_t chunks =
      std::clamp<std::size_t>(words / kMinCryptoChunkWords, 1, pool_->threads());
  return static_cast<std::size_t>(ceil_div(nblocks, chunks));
}

void Client::seal_window(std::span<const std::uint64_t> ids,
                         std::span<const Record> in, std::span<Word> wire,
                         std::size_t grain) {
  const std::size_t n = ids.size(), bw = dev_->block_words();
  // Nonces mutate the Encryptor's state and version bumps mutate the device's
  // anti-rollback table: draw both sequentially on the master, in scatter
  // order, BEFORE fanning out -- ciphertexts and MACs are then a function of
  // the write sequence alone, never of the lane count.
  nonces_.resize(n);
  versions_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    nonces_[j] = enc_.fresh_nonce();
    versions_[j] = dev_->bump_version(ids[j]);
  }
  const auto seal = [&](std::size_t first, std::size_t last) {
    const std::size_t k = last - first;
    enc_.seal_blocks(ids.subspan(first, k),
                     std::span<const Word>(nonces_).subspan(first, k),
                     std::span<const std::uint64_t>(versions_).subspan(first, k),
                     in.subspan(first * B_, k * B_), wire.subspan(first * bw, k * bw));
  };
  // Inline windows skip the pool call (and its std::function) altogether:
  // the single-block read/write path is hot.
  if (grain >= n) seal(0, n);
  else pool_->parallel_for(n, grain, seal);
}

void Client::open_window(std::span<const std::uint64_t> ids,
                         std::span<const Word> wire, std::span<Record> out,
                         std::size_t grain) const {
  const std::size_t n = ids.size(), bw = dev_->block_words();
  versions_.resize(n);
  for (std::size_t j = 0; j < n; ++j) versions_[j] = dev_->version(ids[j]);
  verdicts_.resize(n);
  // Lanes verify into their own verdict slots and never write `wire` (the
  // pipeline's reusable staging); fail_closed reduces after the fan-in.
  const auto open = [&](std::size_t first, std::size_t last) {
    const std::size_t k = last - first;
    enc_.open_blocks(ids.subspan(first, k),
                     std::span<const std::uint64_t>(versions_).subspan(first, k),
                     wire.subspan(first * bw, k * bw), out.subspan(first * B_, k * B_),
                     std::span<std::uint8_t>(verdicts_).subspan(first, k));
  };
  if (grain >= n) open(0, n);
  else pool_->parallel_for(n, grain, open);
}

void Client::fail_closed(std::span<const std::uint64_t> ids) const {
  for (std::size_t j = 0; j < ids.size(); ++j)
    if (!verdicts_[j]) integrity_fail(ids[j]);
}

void Client::integrity_fail(std::uint64_t dev_blk) const {
  throw IntegrityError("block authentication failed: device block " +
                       std::to_string(dev_blk) +
                       " (tampered, swapped, or rolled back); version " +
                       std::to_string(dev_->version(dev_blk)));
}

void Client::read_block(const ExtArray& a, std::uint64_t i, BlockBuf& out) {
  assert(i < a.num_blocks());
  const std::uint64_t dev_blk = a.device_block(i);
  dev_->read(dev_blk, wire_);
  out.resize(B_);
  open_window({&dev_blk, 1}, wire_, out, 1);
  fail_closed({&dev_blk, 1});
}

void Client::write_block(const ExtArray& a, std::uint64_t i, const BlockBuf& in) {
  assert(i < a.num_blocks());
  assert(in.size() == B_);
  const std::uint64_t dev_blk = a.device_block(i);
  seal_window({&dev_blk, 1}, in, wire_, 1);
  dev_->write(dev_blk, wire_);
}

void Client::read_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                         std::span<Record> out) {
  assert(first + count <= a.num_blocks());
  assert(out.size() == count * B_);
  const std::size_t bw = dev_->block_words();
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, count - done);
    ids_.resize(k);
    for (std::uint64_t j = 0; j < k; ++j) ids_[j] = a.device_block(first + done + j);
    wire_many_.resize(static_cast<std::size_t>(k) * bw);
    dev_->read_many(ids_, wire_many_);
    open_window(ids_, wire_many_, out.subspan(done * B_, k * B_), k);
    fail_closed(ids_);
    done += k;
  }
}

void Client::write_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                          std::span<const Record> in) {
  assert(first + count <= a.num_blocks());
  assert(in.size() == count * B_);
  const std::size_t bw = dev_->block_words();
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, count - done);
    ids_.resize(k);
    for (std::uint64_t j = 0; j < k; ++j) ids_[j] = a.device_block(first + done + j);
    wire_many_.resize(static_cast<std::size_t>(k) * bw);
    seal_window(ids_, in.subspan(done * B_, k * B_), wire_many_, k);
    dev_->write_many(ids_, wire_many_);
    done += k;
  }
}

void Client::decrypt_blocks(std::span<const std::uint64_t> dev_ids,
                            std::span<const Word> wire, std::span<Record> out) {
  assert(wire.size() == dev_ids.size() * dev_->block_words());
  assert(out.size() == dev_ids.size() * B_);
  if (dev_ids.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  open_window(dev_ids, wire, out, crypto_grain(dev_ids.size()));
  dev_->add_crypto_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  fail_closed(dev_ids);
}

void Client::encrypt_blocks(std::span<const std::uint64_t> dev_ids,
                            std::span<const Record> in, std::span<Word> wire) {
  assert(wire.size() == dev_ids.size() * dev_->block_words());
  assert(in.size() == dev_ids.size() * B_);
  if (dev_ids.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  seal_window(dev_ids, in, wire, crypto_grain(dev_ids.size()));
  dev_->add_crypto_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void Client::touch_block(const ExtArray& a, std::uint64_t i) {
  BlockBuf buf;
  CacheLease lease(meter_, B_);
  read_block(a, i, buf);
  write_block(a, i, buf);  // fresh nonce => fresh ciphertext
}

void Client::read_records(const ExtArray& a, std::uint64_t start, std::span<Record> out) {
  assert(start + out.size() <= a.num_blocks() * B_);
  BlockBuf buf;
  std::uint64_t pos = start;
  std::size_t done = 0;
  // Leading partial block.
  if (pos % B_ != 0 && done < out.size()) {
    const std::size_t off = static_cast<std::size_t>(pos % B_);
    const std::size_t take = std::min(out.size() - done, B_ - off);
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) out[done + i] = buf[off + i];
    pos += take;
    done += take;
  }
  // Aligned full blocks, batched.
  const std::uint64_t mid = (out.size() - done) / B_;
  if (mid > 0) {
    read_blocks(a, pos / B_, mid, out.subspan(done, mid * B_));
    pos += mid * B_;
    done += static_cast<std::size_t>(mid) * B_;
  }
  // Trailing partial block.
  if (done < out.size()) {
    const std::size_t take = out.size() - done;
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) out[done + i] = buf[i];
  }
}

void Client::write_records(const ExtArray& a, std::uint64_t start,
                           std::span<const Record> in) {
  assert(start + in.size() <= a.num_blocks() * B_);
  BlockBuf buf;
  std::uint64_t pos = start;
  std::size_t done = 0;
  // Leading partial block: read-modify-write.
  if (pos % B_ != 0 && done < in.size()) {
    const std::size_t off = static_cast<std::size_t>(pos % B_);
    const std::size_t take = std::min(in.size() - done, B_ - off);
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) buf[off + i] = in[done + i];
    write_block(a, pos / B_, buf);
    pos += take;
    done += take;
  }
  // Aligned full blocks, batched (write-only, like the per-block path).
  const std::uint64_t mid = (in.size() - done) / B_;
  if (mid > 0) {
    write_blocks(a, pos / B_, mid, in.subspan(done, mid * B_));
    pos += mid * B_;
    done += static_cast<std::size_t>(mid) * B_;
  }
  // Trailing partial block: read-modify-write.
  if (done < in.size()) {
    const std::size_t take = in.size() - done;
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) buf[i] = in[done + i];
    write_block(a, pos / B_, buf);
  }
}

std::vector<Record> Client::peek(const ExtArray& a) const {
  std::vector<Record> out;
  out.reserve(a.num_records());
  const std::size_t bw = dev_->block_words();
  std::vector<std::uint64_t> ids;
  std::vector<Word> wire;
  std::vector<Record> recs;
  // Bulk download in batch windows (uncounted; the backend coalesces).
  for (std::uint64_t i = 0; i < a.num_blocks(); i += io_batch_) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, a.num_blocks() - i);
    ids.resize(k);
    for (std::uint64_t j = 0; j < k; ++j) ids[j] = a.device_block(i + j);
    wire.resize(static_cast<std::size_t>(k) * bw);
    recs.resize(static_cast<std::size_t>(k) * B_);
    dev_->read_raw_range(ids[0], k, wire);
    open_window(ids, wire, recs, k);
    fail_closed(ids);
    const std::size_t take =
        std::min<std::uint64_t>(recs.size(), a.num_records() - out.size());
    out.insert(out.end(), recs.begin(), recs.begin() + take);
  }
  return out;
}

void Client::poke(const ExtArray& a, std::span<const Record> records) {
  assert(records.size() <= a.num_blocks() * B_);
  const std::size_t bw = dev_->block_words();
  std::vector<std::uint64_t> ids;
  std::vector<Word> wire;
  std::vector<Record> recs;
  // Bulk upload in batch windows, padded with empty records; bypasses
  // counters/trace (setup only).
  for (std::uint64_t i = 0; i < a.num_blocks(); i += io_batch_) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, a.num_blocks() - i);
    ids.resize(k);
    for (std::uint64_t j = 0; j < k; ++j) ids[j] = a.device_block(i + j);
    recs.assign(static_cast<std::size_t>(k) * B_, Record{});
    const std::size_t from = std::min<std::size_t>(i * B_, records.size());
    const std::size_t to = std::min<std::size_t>(from + recs.size(), records.size());
    std::copy(records.begin() + from, records.begin() + to, recs.begin());
    wire.resize(static_cast<std::size_t>(k) * bw);
    seal_window(ids, recs, wire, k);
    dev_->write_raw_range(ids[0], k, wire);
  }
}

}  // namespace oem
