#include "serve/wire.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <random>
#include <utility>

#include "faults/fault_injector.h"
#include "programs/programs.h"
#include "support/format.h"

namespace mxl {

std::string
makeTraceId()
{
    // Per-process random base so forked/parallel clients don't
    // collide; a golden-ratio stride walks the 64-bit space without
    // repeating per call.
    static const uint64_t base = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<uint64_t> seq{0};
    uint64_t n =
        base ^ ((seq.fetch_add(1, std::memory_order_relaxed) + 1) *
                0x9e3779b97f4a7c15ull);
    char buf[20];
    std::snprintf(buf, sizeof buf, "t%016llx",
                  static_cast<unsigned long long>(n));
    return buf;
}

namespace {

bool
schemeKindFromName(const std::string &name, SchemeKind *out)
{
    for (SchemeKind k : {SchemeKind::High5, SchemeKind::High6,
                         SchemeKind::Low2, SchemeKind::Low3})
        if (name == schemeKindName(k)) {
            *out = k;
            return true;
        }
    return false;
}

bool
faultClassFromName(const std::string &name, FaultClass *out)
{
    for (FaultClass c :
         {FaultClass::TagCorrupt, FaultClass::BitFlip,
          FaultClass::CallArgType, FaultClass::HeapTagCorrupt,
          FaultClass::HeapBitFlip, FaultClass::StackTagCorrupt,
          FaultClass::StackBitFlip})
        if (name == faultClassName(c)) {
            *out = c;
            return true;
        }
    return false;
}

/** Optional scalar field helpers: absent keys keep the default. */
bool
fieldBool(const Json &o, const char *key, bool dflt)
{
    const Json *v = o.find(key);
    return v ? v->asBool(dflt) : dflt;
}

uint64_t
fieldUint(const Json &o, const char *key, uint64_t dflt)
{
    const Json *v = o.find(key);
    return v && v->isNumber() ? v->asUint(dflt) : dflt;
}

} // namespace

bool
parseCell(const Json &cell, WireCell *out, std::string *err)
{
    if (!cell.isObject()) {
        *err = "cell is not an object";
        return false;
    }
    RunRequest req;

    const Json *label = cell.find("label");
    if (label && label->isString())
        req.label = label->str();

    const Json *source = cell.find("source");
    const Json *program = cell.find("program");
    if (source && source->isString()) {
        req.source = source->str();
    } else if (program && program->isString()) {
        const BenchmarkProgram *found = nullptr;
        for (const BenchmarkProgram &p : benchmarkPrograms())
            if (p.name == program->str()) {
                found = &p;
                break;
            }
        if (!found) {
            *err = strcat("unknown benchmark program '", program->str(),
                          "'");
            return false;
        }
        req.source = found->source;
        req.opts.heapBytes = found->heapBytes;
        req.exec.maxCycles = found->maxCycles;
        if (req.label.empty())
            req.label = found->name;
    } else {
        *err = "cell has neither 'source' nor 'program'";
        return false;
    }

    if (const Json *options = cell.find("options")) {
        if (!options->isObject()) {
            *err = "'options' is not an object";
            return false;
        }
        CompilerOptions &o = req.opts;
        if (const Json *scheme = options->find("scheme")) {
            if (!scheme->isString() ||
                !schemeKindFromName(scheme->str(), &o.scheme)) {
                *err = strcat("unknown scheme '", scheme->str(), "'");
                return false;
            }
        }
        if (const Json *checking = options->find("checking")) {
            if (checking->str() == "full")
                o.checking = Checking::Full;
            else if (checking->str() == "off")
                o.checking = Checking::Off;
            else {
                *err = strcat("unknown checking mode '", checking->str(),
                              "' (want 'off' or 'full')");
                return false;
            }
        }
        if (const Json *am = options->find("arithMode")) {
            int64_t v = am->asInt(-1);
            if (v < 0 ||
                v > static_cast<int64_t>(ArithMode::ForceDispatch)) {
                *err = "arithMode out of range";
                return false;
            }
            o.arithMode = static_cast<ArithMode>(v);
        }
        o.hw.ignoreTagOnMemory =
            fieldBool(*options, "ignoreTagOnMemory", o.hw.ignoreTagOnMemory);
        o.hw.branchOnTag =
            fieldBool(*options, "branchOnTag", o.hw.branchOnTag);
        o.hw.genericArith =
            fieldBool(*options, "genericArith", o.hw.genericArith);
        o.hw.memTagging =
            fieldBool(*options, "memTagging", o.hw.memTagging);
        if (const Json *cm = options->find("checkedMemory")) {
            int64_t v = cm->asInt(-1);
            if (v < 0 || v > static_cast<int64_t>(CheckedMem::All)) {
                *err = "checkedMemory out of range";
                return false;
            }
            o.hw.checkedMemory = static_cast<CheckedMem>(v);
        }
        o.fillDelaySlots =
            fieldBool(*options, "fillDelaySlots", o.fillDelaySlots);
        o.overlapChecks =
            fieldBool(*options, "overlapChecks", o.overlapChecks);
        o.verifyLinked =
            fieldBool(*options, "verifyLinked", o.verifyLinked);
        for (auto [key, field] : {std::pair{"memBytes", &o.memBytes},
                                  {"staticBytes", &o.staticBytes},
                                  {"heapBytes", &o.heapBytes}}) {
            if (const Json *v = options->find(key)) {
                const uint64_t bytes = v->asUint(UINT64_MAX);
                if (bytes > UINT32_MAX) {
                    *err = strcat(key, " out of range");
                    return false;
                }
                *field = static_cast<uint32_t>(bytes);
            }
        }
    }

    req.exec.maxCycles =
        fieldUint(cell, "maxCycles", req.exec.maxCycles);
    uint64_t deadlineMs = fieldUint(cell, "deadlineMs", 0);
    if (deadlineMs > 0)
        req.exec.deadlineSeconds =
            static_cast<double>(deadlineMs) / 1000.0;
    req.exec.installTrapHandlers = fieldBool(
        cell, "installTrapHandlers", req.exec.installTrapHandlers);
    if (const Json *backend = cell.find("backend")) {
        if (!backend->isString() ||
            !backendFromName(backend->str(), &req.exec.backend)) {
            *err = strcat("unknown backend '", backend->str(), "'");
            return false;
        }
    }

    out->hasFault = false;
    if (const Json *fault = cell.find("fault")) {
        if (!fault->isObject()) {
            *err = "'fault' is not an object";
            return false;
        }
        FaultSpec spec;
        const Json *cls = fault->find("class");
        if (!cls || !cls->isString() ||
            !faultClassFromName(cls->str(), &spec.cls)) {
            *err = strcat("unknown fault class '",
                          cls && cls->isString() ? cls->str() : "", "'");
            return false;
        }
        spec.seed = fieldUint(*fault, "seed", 0);
        spec.pauseCycle = fieldUint(*fault, "pause", 0);
        if (faultClassNeedsPause(spec.cls) && spec.pauseCycle == 0) {
            *err = strcat("fault class '", cls->str(),
                          "' needs a nonzero 'pause' cycle");
            return false;
        }
        armFault(req, spec);
        out->hasFault = true;
    }

    out->request = std::move(req);
    return true;
}

Json
reportToJson(const RunReport &rep)
{
    Json j = Json::object();
    j.set("label", rep.label);
    j.set("statusOk", rep.status.ok());
    j.set("statusCode", static_cast<int64_t>(rep.status.code));
    if (!rep.status.ok())
        j.set("statusMessage", rep.status.message);
    j.set("stop", static_cast<int64_t>(rep.result.stop));
    j.set("errorCode", rep.result.errorCode);
    j.set("exitValue", rep.result.exitValue);
    Json stats = Json::object();
    stats.set("total", rep.result.stats.total);
    stats.set("instructions", rep.result.stats.instructions);
    j.set("stats", std::move(stats));
    j.set("output", rep.result.output);
    j.set("wallSeconds", rep.wallSeconds);
    j.set("cacheHit", rep.cacheHit);
    j.set("backend", backendName(rep.backend));
    if (rep.backendFellBack)
        j.set("backendNote", rep.backendNote);
    return j;
}

} // namespace mxl
