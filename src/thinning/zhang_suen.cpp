#include "thinning/zhang_suen.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "imaging/box.hpp"

namespace slj::thin {
namespace {

using Word = std::uint64_t;
constexpr int kWordBits = 64;

static_assert(std::endian::native == std::endian::little,
              "pack8/unpack8 read byte k of a row as the word's byte k");

constexpr Word kLowBits7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr Word kHighBits = 0x8080808080808080ULL;

// Eight mask bytes → eight bits, byte k (nonzero = foreground) → bit k.
Word pack8(const std::uint8_t* p) {
  Word v;
  std::memcpy(&v, p, sizeof v);
  v = (((v & kLowBits7) + kLowBits7) | v) & kHighBits;  // high bit: byte != 0
  return ((v >> 7) * 0x0102040810204080ULL) >> 56;       // gather byte k's bit to bit k
}

// Eight bits → eight byte masks, bit k → byte k = 0xff, else 0.
Word unpack8(Word bits) {
  Word v = (bits * 0x0101010101010101ULL) & 0x8040201008040201ULL;  // byte k holds bit k
  v = ((v + kLowBits7) & kHighBits) >> 7;                            // 0/1 per byte
  return v * 0xff;
}

// Pixel x of the row's words: the neighbour to its right (bit i ← bit i+1)
// and to its left (bit i ← bit i-1). Bits past either end read 0, the zero
// ring around the box.
Word east(const Word* row, int j, int words) {
  return (row[j] >> 1) | (j + 1 < words ? row[j + 1] << (kWordBits - 1) : 0);
}
Word west(const Word* row, int j) {
  return (row[j] << 1) | (j > 0 ? row[j - 1] >> (kWordBits - 1) : 0);
}

// Sub-iteration `k` (even: the first type, odd: the second) over rows
// 1..rows of `bits` (row 0 and row rows + 1 are the zero ring): every
// deletion is decided against the image before the sub-iteration, as the
// algorithm requires, then applied. `prev` holds the row above as it was
// before this sub-iteration, `del` the current row's deletions, and
// `changed[r]` is 1 + the last sub-iteration that deleted from row r (0:
// none). A row whose three rows are unchanged since this type's last
// sub-iteration would get that sub-iteration's answer again, which deleted
// nothing (else the row changed), so it is skipped. Returns the pixels
// removed.
std::size_t sub_iteration(Word* bits, int words, int rows, int k, Word* prev, Word* del,
                          Word* changed) {
  const bool first = k % 2 == 0;
  std::fill(prev, prev + words, Word{0});
  std::size_t removed = 0;
  for (int r = 1; r <= rows; ++r) {
    Word* mid = bits + static_cast<std::size_t>(r) * words;
    const Word* down = mid + words;
    const Word last_change = std::max({changed[r - 1], changed[r], changed[r + 1]});
    if (k >= 2 && last_change + 1 < static_cast<Word>(k)) {
      std::copy(mid, mid + words, prev);
      continue;
    }
    for (int j = 0; j < words; ++j) {
      if (mid[j] == 0) {
        del[j] = 0;
        continue;
      }
      // The ring P2..P9, clockwise from north.
      const Word p[8] = {prev[j],          east(prev, j, words), east(mid, j, words),
                         east(down, j, words), down[j],          west(down, j),
                         west(mid, j),     west(prev, j)};
      Word n[8];
      for (int i = 0; i < 8; ++i) n[i] = ~p[i];
      // A == 1: exactly one 0→1 step around the ring P2..P9,P2. Then the
      // ring is one run of foreground and one of background, so B >= 2 is
      // "two adjacent foreground neighbours" and B <= 6 "two adjacent
      // background neighbours".
      Word step1 = n[7] & p[0];
      Word step2 = 0;
      Word fg_pair = p[7] & p[0];
      Word bg_pair = n[7] & n[0];
      for (int i = 0; i < 7; ++i) {
        const Word step = n[i] & p[i + 1];
        step2 |= step1 & step;
        step1 |= step;
        fg_pair |= p[i] & p[i + 1];
        bg_pair |= n[i] & n[i + 1];
      }
      const Word ab = step1 & ~step2 & fg_pair & bg_pair;
      // p[0] = P2, p[2] = P4, p[4] = P6, p[6] = P8.
      const Word cd = first ? ~(p[2] & p[4] & (p[0] | p[6])) : ~(p[0] & p[6] & (p[2] | p[4]));
      del[j] = mid[j] & ab & cd;
    }
    std::size_t row_removed = 0;
    for (int j = 0; j < words; ++j) {
      prev[j] = mid[j];
      mid[j] &= ~del[j];
      row_removed += static_cast<std::size_t>(std::popcount(del[j]));
    }
    if (row_removed != 0) changed[r] = static_cast<Word>(k) + 1;
    removed += row_removed;
  }
  return removed;
}

}  // namespace

SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                                       ThinningStats* stats) {
  const int w = img.width();
  const int h = img.height();
  out.resize_discard(w, h);
  std::fill(out.data().begin(), out.data().end(), std::uint8_t{0});
  const PixelBox box = foreground_box(img);
  const int words = (box.width() + kWordBits - 1) / kWordBits;
  const int rows = box.height();
  // The box's rows as bits, framed by a zero row above and below, then the
  // two one-row buffers and one change stamp per framed row. Sized for a
  // whole-frame box on first use, so a growing box never reallocates.
  std::vector<Word>& bits = ws.thin_bits;
  const int frame_words = (w + kWordBits - 1) / kWordBits;
  bits.reserve(static_cast<std::size_t>(h + 2) * static_cast<std::size_t>(frame_words + 1) +
               2 * static_cast<std::size_t>(frame_words));
  bits.assign(static_cast<std::size_t>(rows + 2) * static_cast<std::size_t>(words + 1) +
                  2 * static_cast<std::size_t>(words),
              Word{0});
  const std::uint8_t* src = img.data().data();
  const auto src_row = [&](int r) {
    return src + static_cast<std::size_t>(box.y0 + r - 1) * static_cast<std::size_t>(w) + box.x0;
  };
  for (int r = 1; r <= rows; ++r) {
    const std::uint8_t* row = src_row(r);
    Word* dst = bits.data() + static_cast<std::size_t>(r) * words;
    int x = 0;
    for (; x + 8 <= box.width(); x += 8) dst[x / kWordBits] |= pack8(row + x) << (x % kWordBits);
    for (; x < box.width(); ++x) {
      if (row[x] != 0) dst[x / kWordBits] |= Word{1} << (x % kWordBits);
    }
  }

  Word* prev = bits.data() + static_cast<std::size_t>(rows + 2) * words;
  Word* del = prev + words;
  Word* changed = del + words;
  int iterations = 0;
  std::size_t removed_total = 0;
  while (true) {
    const int k = 2 * iterations;
    const std::size_t removed = sub_iteration(bits.data(), words, rows, k, prev, del, changed) +
                                sub_iteration(bits.data(), words, rows, k + 1, prev, del, changed);
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
  }

  // Survivors keep their input byte, as the reference's in-place deletion does.
  for (int r = 1; r <= rows; ++r) {
    const std::uint8_t* row = src_row(r);
    std::uint8_t* dst = out.data().data() + (row - src);
    const Word* b = bits.data() + static_cast<std::size_t>(r) * words;
    int x = 0;
    for (; x + 8 <= box.width(); x += 8) {
      Word v;
      std::memcpy(&v, row + x, sizeof v);
      v &= unpack8((b[x / kWordBits] >> (x % kWordBits)) & 0xff);
      std::memcpy(dst + x, &v, sizeof v);
    }
    for (; x < box.width(); ++x) {
      if ((b[x / kWordBits] >> (x % kWordBits)) & 1) dst[x] = row[x];
    }
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->removed = removed_total;
  }
}

}  // namespace slj::thin
