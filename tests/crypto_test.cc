// The window-level crypto kernel (Encryptor::seal_blocks / open_blocks)
// against the per-block apply_keystream + mac reference, verdict isolation
// inside an interleaved group, and a golden pin on the ciphertext a Client
// leaves in Bob's store.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "extmem/client.h"
#include "extmem/encryption.h"
#include "rng/random.h"
#include "test_util.h"

namespace oem {
namespace {

// One random window: n blocks of B records with random ids, nonces and
// versions (nonces and versions nonzero, as the Client always draws them).
struct Window {
  std::size_t B = 0, bw = 0;
  std::vector<std::uint64_t> ids;
  std::vector<Word> nonces;
  std::vector<std::uint64_t> versions;
  std::vector<Record> plain;
};

Window random_window(std::size_t B, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro g(seed);
  Window w;
  w.B = B;
  w.bw = kBlockHeaderWords + B * kWordsPerRecord;
  for (std::size_t j = 0; j < n; ++j) {
    w.ids.push_back(g.next() >> 20);
    w.nonces.push_back(g.next() | 1);
    w.versions.push_back(1 + g.next() % 1000);
  }
  for (std::size_t i = 0; i < n * B; ++i) w.plain.push_back({g.next(), g.next()});
  return w;
}

// The per-block reference seal: serialize, apply_keystream, mac.
std::vector<Word> reference_seal(const Encryptor& enc, const Window& w) {
  std::vector<Word> wire(w.ids.size() * w.bw);
  for (std::size_t j = 0; j < w.ids.size(); ++j) {
    std::span<Word> blk(wire.data() + j * w.bw, w.bw);
    blk[0] = w.nonces[j];
    for (std::size_t r = 0; r < w.B; ++r) {
      blk[kBlockHeaderWords + 2 * r] = w.plain[j * w.B + r].key;
      blk[kBlockHeaderWords + 2 * r + 1] = w.plain[j * w.B + r].value;
    }
    enc.apply_keystream(w.ids[j], w.nonces[j], blk.subspan(kBlockHeaderWords));
    blk[1] = enc.mac(w.ids[j], w.nonces[j], w.versions[j], blk.subspan(kBlockHeaderWords));
  }
  return wire;
}

const Encryptor kEnc(0x0123456789abcdefULL, 77);

TEST(CryptoKernel, SealMatchesPerBlockReferenceAndOpenRoundTrips) {
  for (std::size_t B : {1, 4, 8, 32}) {
    for (std::size_t n = 1; n <= 9; ++n) {
      SCOPED_TRACE("B=" + std::to_string(B) + " n=" + std::to_string(n));
      const Window w = random_window(B, n, B * 100 + n);
      std::vector<Word> wire(n * w.bw);
      kEnc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, wire);
      EXPECT_EQ(wire, reference_seal(kEnc, w));

      std::vector<Record> out(n * B);
      std::vector<std::uint8_t> verdicts(n, 7);
      kEnc.open_blocks(w.ids, w.versions, wire, out, verdicts);
      EXPECT_EQ(verdicts, std::vector<std::uint8_t>(n, 1));
      EXPECT_EQ(out, w.plain);
    }
  }
}

// Open `wire` and check that exactly block `bad` failed: its verdict is 0 and
// its records are zeroed, every other block verified and round-tripped.
void expect_only_block_fails(const Window& w, const std::vector<std::uint64_t>& versions,
                             const std::vector<Word>& wire, std::size_t bad) {
  const std::size_t n = w.ids.size();
  std::vector<Record> out(n * w.B, Record{5, 5});
  std::vector<std::uint8_t> verdicts(n, 7);
  kEnc.open_blocks(w.ids, versions, wire, out, verdicts);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(verdicts[j], j == bad ? 0 : 1) << "block " << j;
    for (std::size_t r = 0; r < w.B; ++r) {
      const Record want = j == bad ? Record{0, 0} : w.plain[j * w.B + r];
      EXPECT_EQ(out[j * w.B + r], want) << "block " << j << " record " << r;
    }
  }
}

TEST(CryptoKernel, FlippedWordFailsOnlyItsOwnBlock) {
  for (std::size_t B : {1, 8, 32}) {
    const std::size_t n = 9;  // two full groups and a one-block tail
    const Window w = random_window(B, n, 4242 + B);
    std::vector<Word> sealed(n * w.bw);
    kEnc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, sealed);
    for (std::size_t bad = 0; bad < n; ++bad) {
      for (std::size_t word : {std::size_t{0}, std::size_t{1}, w.bw - 1}) {
        SCOPED_TRACE("B=" + std::to_string(B) + " bad=" + std::to_string(bad) +
                     " word=" + std::to_string(word));
        std::vector<Word> wire = sealed;
        wire[bad * w.bw + word] ^= 0x10;
        expect_only_block_fails(w, w.versions, wire, bad);
      }
    }
  }
}

TEST(CryptoKernel, RolledBackOrUnwrittenVersionFailsOnlyItsOwnBlock) {
  const std::size_t B = 8, n = 9;
  const Window w = random_window(B, n, 99);
  std::vector<Word> wire(n * w.bw);
  kEnc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, wire);
  for (std::size_t bad = 0; bad < n; ++bad) {
    SCOPED_TRACE("bad=" + std::to_string(bad));
    for (std::uint64_t v : {std::uint64_t{0}, w.versions[bad] + 1}) {
      // Version 0: the client never wrote the block, so sealed bytes there
      // were fabricated.  Version + 1: the store replays a stale image.
      std::vector<std::uint64_t> versions = w.versions;
      versions[bad] = v;
      expect_only_block_fails(w, versions, wire, bad);
    }
  }
}

TEST(CryptoKernel, NeverWrittenZeroBlockVerifiesInsideAGroup) {
  const std::size_t B = 4, n = 6;
  const Window w = random_window(B, n, 5);
  std::vector<Word> wire(n * w.bw);
  kEnc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, wire);
  std::vector<std::uint64_t> versions = w.versions;
  versions[2] = 0;
  std::fill_n(wire.begin() + 2 * w.bw, w.bw, Word{0});
  std::vector<Record> out(n * B);
  std::vector<std::uint8_t> verdicts(n, 7);
  kEnc.open_blocks(w.ids, versions, wire, out, verdicts);
  EXPECT_EQ(verdicts, std::vector<std::uint8_t>(n, 1));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t r = 0; r < B; ++r) {
      const Record want = j == 2 ? Record{0, 0} : w.plain[j * B + r];
      EXPECT_EQ(out[j * B + r], want) << "block " << j;
    }
  }
}

// Raw image of everything a Client stores after one pass over every sealing
// path: counted window writes (alloc, write_records), read-modify-write
// partial blocks, single-block write/touch, uncounted poke, and a staged
// encrypt_blocks window large enough to fan out at B=32.
std::uint64_t golden_store_hash(std::size_t B, std::size_t threads) {
  ClientParams p = test::params(B, 64 * B, /*seed=*/2024);
  p.backend = mem_backend();
  p.compute_threads = threads;
  Client c(p);
  const std::size_t bw = c.device().block_words();

  ExtArray a = c.alloc(40 * B + 3);
  c.write_records(a, 5, test::random_records(20 * B, 11));
  BlockBuf buf(B);
  for (std::size_t r = 0; r < B; ++r) buf[r] = {r * 3 + 1, r};
  c.write_block(a, 7, buf);
  c.touch_block(a, 9);

  ExtArray b = c.alloc_blocks(16, Client::Init::kUninit);
  c.poke(b, test::random_records(16 * B - 5, 12));

  ExtArray e = c.alloc_blocks(64, Client::Init::kUninit);
  std::vector<std::uint64_t> ids(64);
  for (std::uint64_t j = 0; j < 64; ++j) ids[j] = e.device_block(j);
  const std::vector<Record> recs = test::random_records(64 * B, 13);
  std::vector<Word> wire(64 * bw);
  c.encrypt_blocks(ids, recs, wire);
  c.device().write_raw_range(e.device_block(0), 64, wire);

  // Everything still opens under the client's versions.
  EXPECT_EQ(c.peek(e), recs);
  EXPECT_EQ(c.peek(b).size(), 16 * B);

  std::vector<Word> img(c.device().num_blocks() * bw);
  c.device().read_raw_range(0, c.device().num_blocks(), img);
  std::uint64_t h = 0x676f6c64656e2121ULL;
  for (Word w : img) h = rng::mix64(h ^ w);
  return h;
}

// The kernel changes no byte Bob holds.  The constants were captured from the
// per-block seal the kernel replaced; a change to the block format (a real
// AEAD, a wider tag) updates them on purpose.
TEST(CryptoGolden, StoredCiphertextIsPinned) {
  EXPECT_EQ(golden_store_hash(8, 1), 0x03f06bf0bfbc046cULL);
  EXPECT_EQ(golden_store_hash(32, 1), 0x26a50d1c65f22855ULL);
  EXPECT_EQ(golden_store_hash(32, 2), 0x26a50d1c65f22855ULL);
  EXPECT_EQ(golden_store_hash(4, 1), 0x760bb4e8185d5289ULL);
}

}  // namespace
}  // namespace oem
