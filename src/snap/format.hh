/**
 * @file
 * The snapshot wire format (see DESIGN.md section 4.5).
 *
 * A snapshot file is a fixed 24-byte header followed by a payload of
 * tagged sections:
 *
 *   header:  "TSNP" magic, u32 version, u64 payload length,
 *            u32 CRC-32 of the payload, u32 section count
 *   section: u32 fourcc tag, varint body length, body bytes
 *
 * Integers inside section bodies are LEB128 varints (zigzag for
 * signed ticks), so a mostly-idle simulation costs bytes proportional
 * to its activity, not its address space.  The CRC covers the entire
 * payload: any bit flip anywhere is detected before a single field is
 * parsed, and the loader separately bound-checks every length against
 * the bytes actually present, so hostile or truncated input is
 * rejected with a diagnostic instead of crashing or OOMing.
 *
 * This layer knows nothing about simulations: it is byte plumbing
 * shared by the snapshot model (snapshot.hh) and its fuzz tests.
 */

#ifndef TRANSPUTER_SNAP_FORMAT_HH
#define TRANSPUTER_SNAP_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace transputer::snap
{

/** Thrown on any malformed, truncated or corrupted snapshot. */
class SnapError : public SimFatal
{
  public:
    explicit SnapError(const std::string &what) : SimFatal(what) {}
};

/** @name Format constants */
///@{
constexpr uint32_t magic = 0x504E5354;  ///< "TSNP" little-endian
/** v4: the counters are written row by row from obs::kCounterRows,
 *  which adds the route rows and writes every slot as a u64.
 *  Snapshots are exact-version: a v3 reader rejects v4 images and
 *  vice versa. */
constexpr uint32_t formatVersion = 4;
constexpr size_t headerBytes = 24;
///@}

/** Section tags (fourcc, read as little-endian u32). */
namespace sect
{
constexpr uint32_t meta = 0x4154454D; ///< "META": clock, flags
constexpr uint32_t topo = 0x4F504F54; ///< "TOPO": nodes + wiring
constexpr uint32_t node = 0x45444F4E; ///< "NODE": one CPU + memory
constexpr uint32_t engs = 0x53474E45; ///< "ENGS": link engines
constexpr uint32_t lins = 0x534E494C; ///< "LINS": lines + in-flight
constexpr uint32_t peri = 0x49524550; ///< "PERI": peripheral blobs
constexpr uint32_t flts = 0x53544C46; ///< "FLTS": fault injector
constexpr uint32_t scen = 0x4E454353; ///< "SCEN": scenario kv pairs
} // namespace sect

/** CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). */
uint32_t crc32(const uint8_t *data, size_t n);

/** Append-only encoder for varint-packed section bodies. */
class Writer
{
  public:
    std::vector<uint8_t> &bytes() { return buf_; }
    const std::vector<uint8_t> &bytes() const { return buf_; }
    size_t size() const { return buf_.size(); }

    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    boolean(bool v)
    {
        buf_.push_back(v ? 1 : 0);
    }

    /** Unsigned LEB128. */
    void
    u64(uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<uint8_t>(v) | 0x80);
            v >>= 7;
        }
        buf_.push_back(static_cast<uint8_t>(v));
    }

    void u32(uint32_t v) { u64(v); }

    /** Zigzag + LEB128 for signed quantities (ticks). */
    void
    i64(int64_t v)
    {
        u64((static_cast<uint64_t>(v) << 1) ^
            static_cast<uint64_t>(v >> 63));
    }

    void tick(Tick t) { i64(t); }

    /** Length-prefixed byte string. */
    void
    blob(const uint8_t *data, size_t n)
    {
        u64(n);
        buf_.insert(buf_.end(), data, data + n);
    }

    void
    blob(const std::vector<uint8_t> &v)
    {
        blob(v.data(), v.size());
    }

    void
    str(const std::string &s)
    {
        blob(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked decoder.  Every read throws SnapError on truncation
 * and every length is capped by the bytes remaining, so the reader
 * can be pointed at arbitrary hostile input.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t n) : p_(data), end_(data + n) {}

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool done() const { return p_ == end_; }

    /** A sub-reader over the next n bytes, which are consumed. */
    Reader
    sub(size_t n)
    {
        need(n, "sub-section");
        Reader r(p_, n);
        p_ += n;
        return r;
    }

    uint8_t
    u8()
    {
        need(1, "u8");
        return *p_++;
    }

    bool boolean() { return u8() != 0; }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        int shift = 0;
        while (true) {
            need(1, "varint");
            const uint8_t b = *p_++;
            if (shift == 63 && (b & 0x7E))
                throw SnapError("varint overflows 64 bits");
            v |= static_cast<uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
            if (shift > 63)
                throw SnapError("varint longer than 10 bytes");
        }
    }

    uint32_t
    u32()
    {
        const uint64_t v = u64();
        if (v > UINT32_MAX)
            throw SnapError("u32 field out of range");
        return static_cast<uint32_t>(v);
    }

    int64_t
    i64()
    {
        const uint64_t z = u64();
        return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    }

    Tick tick() { return i64(); }

    /**
     * A length this reader must still be able to supply: the cheap
     * cap that turns a hostile 2^60 count into a clean rejection
     * before anything is allocated.
     */
    uint64_t
    count(const char *what)
    {
        const uint64_t n = u64();
        if (n > remaining())
            throw SnapError(fmt("{} count {} exceeds the {} bytes "
                                "remaining", what, n, remaining()));
        return n;
    }

    std::vector<uint8_t>
    blob()
    {
        const uint64_t n = count("blob");
        std::vector<uint8_t> v(p_, p_ + n);
        p_ += n;
        return v;
    }

    std::string
    str()
    {
        const uint64_t n = count("string");
        std::string s(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        return s;
    }

    /** Reject trailing garbage at the end of a section. */
    void
    expectEnd(const char *what)
    {
        if (!done())
            throw SnapError(fmt("{} has {} trailing bytes", what,
                                remaining()));
    }

  private:
    void
    need(size_t n, const char *what)
    {
        if (remaining() < n)
            throw SnapError(fmt("truncated snapshot: {} needs {} "
                                "bytes, {} remain", what, n,
                                remaining()));
    }

    const uint8_t *p_;
    const uint8_t *end_;
};

/** One decoded section. */
struct Section
{
    uint32_t tag = 0;
    std::vector<uint8_t> body;
};

/** Frame sections into a checksummed file image. */
std::vector<uint8_t> frame(const std::vector<Section> &sections);

/**
 * Parse and verify a file image: magic, version, exact length, CRC.
 * @throws SnapError on any defect, before any section is parsed.
 */
std::vector<Section> unframe(const uint8_t *data, size_t n);

} // namespace transputer::snap

#endif // TRANSPUTER_SNAP_FORMAT_HH
