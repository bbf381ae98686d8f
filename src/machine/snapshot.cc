#include "machine/snapshot.h"

#include <cstring>

namespace mxl {

namespace {

// Fixed-order little-endian encoding. The format is versioned so a
// journal of serialized snapshots stays readable across changes.
// 02 appended the memTagLocks vector after the memory words, one key
// byte per word, 0xff where unpainted.
const char kMagic[8] = {'M', 'X', 'S', 'N', 'A', 'P', '0', '2'};

void
putU32(std::string &s, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &s, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putI32(std::string &s, int32_t v)
{
    putU32(s, static_cast<uint32_t>(v));
}

void
putBytes(std::string &s, const std::string &b)
{
    putU64(s, b.size());
    s += b;
}

struct Cursor
{
    const std::string &s;
    size_t pos = 0;
    bool ok = true;

    /** Bytes left to read (pos never passes the end). */
    size_t left() const { return s.size() - pos; }

    bool
    take(void *dst, size_t n)
    {
        if (!ok || n > left()) {
            ok = false;
            return false;
        }
        std::memcpy(dst, s.data() + pos, n);
        pos += n;
        return true;
    }

    uint32_t
    u32()
    {
        unsigned char b[4] = {};
        take(b, 4);
        return static_cast<uint32_t>(b[0]) |
               (static_cast<uint32_t>(b[1]) << 8) |
               (static_cast<uint32_t>(b[2]) << 16) |
               (static_cast<uint32_t>(b[3]) << 24);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        uint64_t hi = u32();
        return lo | (hi << 32);
    }

    int32_t i32() { return static_cast<int32_t>(u32()); }

    std::string
    bytes()
    {
        uint64_t n = u64();
        if (!ok || n > left()) {
            ok = false;
            return {};
        }
        std::string out = s.substr(pos, n);
        pos += n;
        return out;
    }
};

void
putStats(std::string &s, const CycleStats &st)
{
    putU64(s, st.total);
    putU64(s, st.instructions);
    for (int p = 0; p < numPurposes; ++p)
        for (int f = 0; f < 2; ++f)
            putU64(s, st.byPurpose[p][f]);
    for (int c = 0; c < numCheckCats; ++c)
        for (int f = 0; f < 2; ++f)
            putU64(s, st.byCat[c][f]);
    putU64(s, st.andOps);
    putU64(s, st.moveOps);
    putU64(s, st.noops);
    putU64(s, st.squashed);
    putU64(s, st.loadStalls);
    putU64(s, st.loads);
    putU64(s, st.stores);
    putU64(s, st.branches);
}

void
takeStats(Cursor &c, CycleStats *st)
{
    st->total = c.u64();
    st->instructions = c.u64();
    for (int p = 0; p < numPurposes; ++p)
        for (int f = 0; f < 2; ++f)
            st->byPurpose[p][f] = c.u64();
    for (int k = 0; k < numCheckCats; ++k)
        for (int f = 0; f < 2; ++f)
            st->byCat[k][f] = c.u64();
    st->andOps = c.u64();
    st->moveOps = c.u64();
    st->noops = c.u64();
    st->squashed = c.u64();
    st->loadStalls = c.u64();
    st->loads = c.u64();
    st->stores = c.u64();
    st->branches = c.u64();
}

} // namespace

std::string
MachineSnapshot::serialize() const
{
    std::string s;
    s.reserve(256 + memory.size() * 4 + output.size());
    s.append(kMagic, sizeof kMagic);

    for (uint32_t r : regs)
        putU32(s, r);
    putI32(s, pc);
    for (int h : trapHandler)
        putI32(s, h);

    putI32(s, pendingLoadReg);
    putI32(s, slotsRemaining);
    putI32(s, branchTaken ? 1 : 0);
    putI32(s, annulSlots ? 1 : 0);
    putI32(s, branchTarget);
    putI32(s, branchIdx);

    putStats(s, stats);
    putBytes(s, output);
    putU32(s, exitValue);
    putU64(s, static_cast<uint64_t>(errorCode));
    putI32(s, static_cast<int32_t>(stop));
    putI32(s, faultIndex);

    putU64(s, memory.size());
    for (uint32_t w : memory)
        putU32(s, w);
    putU64(s, memTagLocks.size());
    for (uint8_t lock : memTagLocks)
        s += static_cast<char>(lock - 1); // unpainted: 0xff
    return s;
}

bool
MachineSnapshot::deserialize(const std::string &bytes, MachineSnapshot *out)
{
    Cursor c{bytes};
    char magic[8] = {};
    if (!c.take(magic, sizeof magic) ||
        std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        return false;

    MachineSnapshot s;
    for (uint32_t &r : s.regs)
        r = c.u32();
    s.pc = c.i32();
    for (int &h : s.trapHandler)
        h = c.i32();

    s.pendingLoadReg = c.i32();
    s.slotsRemaining = c.i32();
    s.branchTaken = c.i32() != 0;
    s.annulSlots = c.i32() != 0;
    s.branchTarget = c.i32();
    s.branchIdx = c.i32();

    takeStats(c, &s.stats);
    s.output = c.bytes();
    s.exitValue = c.u32();
    s.errorCode = static_cast<int64_t>(c.u64());
    int32_t stop = c.i32();
    if (stop < static_cast<int32_t>(StopReason::Running) ||
        stop > static_cast<int32_t>(StopReason::IllegalAccess))
        return false;
    s.stop = static_cast<StopReason>(stop);
    s.faultIndex = c.i32();

    // Counts are checked against the bytes left, never summed with the
    // position: a hostile count must not wrap past the check. Only
    // nonzero words and painted locks are written, so the decoded
    // storage stays lazy.
    uint64_t words = c.u64();
    if (!c.ok || words > c.left() / 4)
        return false;
    s.memory = ZeroedArray<uint32_t>(words);
    for (uint64_t i = 0; i < words; ++i)
        if (uint32_t w = c.u32())
            s.memory[i] = w;
    uint64_t locks = c.u64();
    if (!c.ok || locks > c.left())
        return false;
    s.memTagLocks = ZeroedArray<uint8_t>(locks);
    for (uint64_t i = 0; i < locks; ++i) {
        auto key = static_cast<unsigned char>(bytes[c.pos + i]);
        if (key != Machine::kMemTagUnpainted)
            s.memTagLocks[i] = static_cast<uint8_t>(key + 1);
    }
    c.pos += locks;
    if (c.pos != bytes.size())
        return false;
    *out = std::move(s);
    return true;
}

} // namespace mxl
