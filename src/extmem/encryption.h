// Simulation of authenticated block encryption.
//
// The paper assumes Alice encrypts every block "using a semantically secure
// encryption scheme such that re-encryption of the same value is
// indistinguishable from an encryption of a different value".  We simulate
// this with a keyed keystream (SplitMix64 over key ⊕ block ⊕ nonce ⊕ counter)
// and a fresh nonce on every write, so that:
//   * the device only ever holds ciphertext,
//   * rewriting an unchanged block produces a fresh, unrelated ciphertext.
//
// Since PR 8 the scheme is *authenticated* too: mac() produces a per-block
// tag bound to (ciphertext, device block index, nonce, version counter), the
// AEAD shape — the version binding is what detects rollback/replay, because
// the expected version lives client-side, never on the server.  Nonces are
// derived from a monotonic per-Encryptor counter (mixed, so they still look
// random on the wire) rather than drawn at random: a bijective counter makes
// nonce reuse impossible within a store's lifetime, where a bare random draw
// silently repeats a keystream at the birthday bound.
//
// The hot path is window-level: seal_blocks/open_blocks take a whole I/O
// window and run its blocks in groups of four, interleaving the four
// independent MAC chains word by word (one chain is a serial run of mix64
// calls, so a single block leaves most of the core idle) and fusing
// serialize+keystream on the way out and keystream+deserialize on the way in.
// Every output word is identical to the per-block apply_keystream + mac
// reference below; a multi-buffer AEAD would plug in at the same seam.
//
// This is NOT a real cipher or a real MAC; it exists so the simulation has
// genuine "Bob cannot read contents" and "Bob cannot forge contents" code
// paths (DESIGN.md substitution #2).  All obliviousness guarantees in this
// library are about access patterns only.
#pragma once

#include <cstdint>
#include <span>

#include "extmem/record.h"

namespace oem {

class Encryptor {
 public:
  Encryptor(Word key, std::uint64_t nonce_seed);

  /// Draw a fresh nonce for a write.  Counter-derived: never repeats within
  /// this Encryptor's lifetime, and never returns 0 (the never-written
  /// sentinel in stored-block headers).
  Word fresh_nonce();

  /// XOR `payload` with the keystream for (block_index, nonce); involutive,
  /// so the same call decrypts.
  void apply_keystream(std::uint64_t block_index, Word nonce,
                       std::span<Word> payload) const;

  /// Authentication tag over the *ciphertext* payload, bound to the device
  /// block index (detects block swaps), the nonce (binds tag to this exact
  /// sealing), and the client-side version counter (detects rollback to a
  /// stale-but-once-valid block).
  Word mac(std::uint64_t block_index, Word nonce, std::uint64_t version,
           std::span<const Word> ciphertext) const;

  /// Seal a window of n = ids.size() blocks of B = in.size() / n records:
  /// block j (device block ids[j], nonce nonces[j], new version versions[j],
  /// plaintext in[j*B, (j+1)*B)) becomes wire[j*bw, (j+1)*bw) laid out as
  /// [nonce][mac][ciphertext], bw = kBlockHeaderWords + B * kWordsPerRecord.
  /// Pure given its inputs, so compute lanes may seal disjoint chunks of one
  /// window in parallel.
  void seal_blocks(std::span<const std::uint64_t> ids,
                   std::span<const Word> nonces,
                   std::span<const std::uint64_t> versions,
                   std::span<const Record> in, std::span<Word> wire) const;

  /// Verify + decrypt a window sealed by seal_blocks, against the client-side
  /// versions.  verdicts[j] = 1 when block j authenticates; a failing block
  /// (tampered, swapped, rolled back, or bytes fabricated at version 0, where
  /// the backend contract says a never-written block reads as all-zero) gets
  /// 0 and its records zeroed, so tampered plaintext never reaches a caller
  /// that ignores the verdict.  Other blocks are unaffected.
  void open_blocks(std::span<const std::uint64_t> ids,
                   std::span<const std::uint64_t> versions,
                   std::span<const Word> wire, std::span<Record> out,
                   std::span<std::uint8_t> verdicts) const;

  /// Nonce-counter persistence hooks for the durable freshness state: a
  /// restarted client restores the counter so counter-derived nonces keep
  /// their never-repeat guarantee across process lifetimes.
  std::uint64_t nonce_counter() const { return nonce_counter_; }
  void set_nonce_counter(std::uint64_t c) { nonce_counter_ = c; }

 private:
  Word key_;
  Word mac_key_;  // domain-separated from the keystream key
  std::uint64_t nonce_base_;
  std::uint64_t nonce_counter_ = 0;
};

}  // namespace oem
