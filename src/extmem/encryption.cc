#include "extmem/encryption.h"

#include <algorithm>
#include <cassert>

#include "rng/random.h"

namespace oem {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
// Blocks per interleaved group: four independent mix64 chains hide most of
// one chain's multiply latency, while their state still mostly fits in
// registers.
constexpr std::size_t kGroup = 4;

// The window's shape, shared by every group of one seal_blocks/open_blocks
// call.
struct Window {
  Word key;
  Word mac_key;
  std::size_t B;
  std::size_t bw;
  const std::uint64_t* ids;
  const std::uint64_t* versions;
};

// MAC state after absorbing the header fields, before the ciphertext.
inline std::uint64_t mac_head(Word mac_key, std::uint64_t id, Word nonce,
                              std::uint64_t version) {
  std::uint64_t h = rng::mix64(mac_key ^ (id * kGolden));
  h = rng::mix64(h ^ nonce);
  return rng::mix64(h ^ version);
}

// Seal the G window slots js[0..G): serialize + keystream + MAC in one pass
// over the records, the G chains advanced side by side.
template <std::size_t G>
void seal_group(const Window& win, const std::size_t* js, const Word* nonces,
                const Record* in, Word* wire) {
  std::uint64_t stream[G], h[G];
  const Record* src[G];
  Word* dst[G];
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t j = js[g];
    stream[g] = win.key ^ (win.ids[j] * kGolden) ^ nonces[j];
    h[g] = mac_head(win.mac_key, win.ids[j], nonces[j], win.versions[j]);
    src[g] = in + j * win.B;
    dst[g] = wire + j * win.bw;
    dst[g][0] = nonces[j];
  }
  const std::size_t B = win.B;  // a local: the stores below cannot alias it
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t g = 0; g < G; ++g) {
      const Word ck = src[g][r].key ^ rng::splitmix64(stream[g]);
      const Word cv = src[g][r].value ^ rng::splitmix64(stream[g]);
      dst[g][kBlockHeaderWords + kWordsPerRecord * r] = ck;
      dst[g][kBlockHeaderWords + kWordsPerRecord * r + 1] = cv;
      h[g] = rng::mix64(rng::mix64(h[g] ^ ck) ^ cv);
    }
  }
  for (std::size_t g = 0; g < G; ++g) dst[g][1] = h[g];
}

// Verify + decrypt the G window slots js[0..G) (all written at least once):
// MAC + keystream + deserialize in one pass, plaintext zeroed on a bad tag.
template <std::size_t G>
void open_group(const Window& win, const std::size_t* js, const Word* wire,
                Record* out, std::uint8_t* verdicts) {
  std::uint64_t stream[G], h[G];
  const Word* src[G];
  Record* dst[G];
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t j = js[g];
    src[g] = wire + j * win.bw;
    dst[g] = out + j * win.B;
    stream[g] = win.key ^ (win.ids[j] * kGolden) ^ src[g][0];
    h[g] = mac_head(win.mac_key, win.ids[j], src[g][0], win.versions[j]);
  }
  const std::size_t B = win.B;  // a local: the stores below cannot alias it
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t g = 0; g < G; ++g) {
      const Word ck = src[g][kBlockHeaderWords + kWordsPerRecord * r];
      const Word cv = src[g][kBlockHeaderWords + kWordsPerRecord * r + 1];
      h[g] = rng::mix64(rng::mix64(h[g] ^ ck) ^ cv);
      dst[g][r].key = ck ^ rng::splitmix64(stream[g]);
      dst[g][r].value = cv ^ rng::splitmix64(stream[g]);
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    const bool ok = h[g] == src[g][1];
    verdicts[js[g]] = ok;
    if (!ok) std::fill(dst[g], dst[g] + win.B, Record{0, 0});
  }
}

}  // namespace

Encryptor::Encryptor(Word key, std::uint64_t nonce_seed)
    : key_(key),
      mac_key_(rng::mix64(key ^ 0x6d61632d6b657921ULL)),  // "mac-key!"
      nonce_base_(nonce_seed ^ 0x41c64e6d12345ULL) {}

Word Encryptor::fresh_nonce() {
  // mix64 is a bijection, so distinct counter values give distinct nonces:
  // reuse is impossible within this store's lifetime (a bare random draw
  // would repeat a keystream at the 2^32 birthday bound).  Zero is reserved
  // as the never-written header sentinel; skip it on the (one in 2^64)
  // collision.
  Word n = rng::mix64(nonce_base_ ^ (0x9e3779b97f4a7c15ULL * ++nonce_counter_));
  if (n == 0)
    n = rng::mix64(nonce_base_ ^ (0x9e3779b97f4a7c15ULL * ++nonce_counter_));
  return n;
}

void Encryptor::apply_keystream(std::uint64_t block_index, Word nonce,
                                std::span<Word> payload) const {
  std::uint64_t stream = key_ ^ (block_index * kGolden) ^ nonce;
  for (Word& w : payload) w ^= rng::splitmix64(stream);
}

Word Encryptor::mac(std::uint64_t block_index, Word nonce, std::uint64_t version,
                    std::span<const Word> ciphertext) const {
  // Keyed mix64 absorption chain -- simulation-grade, like the keystream:
  // the point is the *binding* (ciphertext + index + nonce + version under a
  // key Bob never sees), not cryptographic strength.
  std::uint64_t h = mac_head(mac_key_, block_index, nonce, version);
  for (Word w : ciphertext) h = rng::mix64(h ^ w);
  return h;
}

void Encryptor::seal_blocks(std::span<const std::uint64_t> ids,
                            std::span<const Word> nonces,
                            std::span<const std::uint64_t> versions,
                            std::span<const Record> in, std::span<Word> wire) const {
  const std::size_t n = ids.size();
  if (n == 0) return;
  const std::size_t B = in.size() / n;
  const Window win{key_, mac_key_, B, kBlockHeaderWords + B * kWordsPerRecord,
                   ids.data(), versions.data()};
  assert(nonces.size() == n && versions.size() == n && in.size() == n * B);
  assert(wire.size() == n * win.bw);
  std::size_t js[kGroup];
  std::size_t j = 0;
  for (; j + kGroup <= n; j += kGroup) {
    for (std::size_t g = 0; g < kGroup; ++g) js[g] = j + g;
    seal_group<kGroup>(win, js, nonces.data(), in.data(), wire.data());
  }
  for (; j < n; ++j) seal_group<1>(win, &j, nonces.data(), in.data(), wire.data());
}

void Encryptor::open_blocks(std::span<const std::uint64_t> ids,
                            std::span<const std::uint64_t> versions,
                            std::span<const Word> wire, std::span<Record> out,
                            std::span<std::uint8_t> verdicts) const {
  const std::size_t n = ids.size();
  if (n == 0) return;
  const std::size_t B = out.size() / n;
  const Window win{key_, mac_key_, B, kBlockHeaderWords + B * kWordsPerRecord,
                   ids.data(), versions.data()};
  assert(versions.size() == n && verdicts.size() == n && out.size() == n * B);
  assert(wire.size() == n * win.bw);
  // Written blocks queue up into groups; never-written ones are checked on
  // the spot, so one fabricated block never drags its neighbours off the
  // grouped path.
  std::size_t js[kGroup];
  std::size_t queued = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (versions[j] != 0) {
      js[queued++] = j;
      if (queued == kGroup) {
        open_group<kGroup>(win, js, wire.data(), out.data(), verdicts.data());
        queued = 0;
      }
      continue;
    }
    // Never written by this client: the backend contract says a fresh (or
    // shrunk-then-regrown) block reads as all-zero, header included.  Any
    // other bytes at version 0 were fabricated by the server.  Either way
    // the plaintext is all {0, 0}.
    const std::span<const Word> w = wire.subspan(j * win.bw, win.bw);
    verdicts[j] = std::all_of(w.begin(), w.end(), [](Word x) { return x == 0; });
    std::fill_n(out.begin() + j * B, B, Record{0, 0});
  }
  for (std::size_t g = 0; g < queued; ++g)
    open_group<1>(win, &js[g], wire.data(), out.data(), verdicts.data());
}

}  // namespace oem
