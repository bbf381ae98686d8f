#include "core/run.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/engine.h"
#include "support/panic.h"

namespace mxl {

void
installTrapHandlers(Machine &m, const CompiledUnit &unit)
{
    if (unit.opts.hw.genericArith && unit.arithTrap >= 0)
        m.setTrapHandler(TrapKind::ArithFail, unit.arithTrap);
    if (unit.opts.hw.checkedMemory != CheckedMem::None && unit.tagTrap >= 0)
        m.setTrapHandler(TrapKind::TagMismatch, unit.tagTrap);
}

RunResult
runUnitOn(const CompiledUnit &unit, Memory image,
          const RunControls &controls)
{
    Machine m(unit.prog, std::move(image), unit.opts.hw,
              unit.scheme.get());
    if (controls.installTrapHandlers)
        installTrapHandlers(m, unit);

    std::shared_ptr<PcProfile> prof;
    if (controls.collectProfile) {
        prof = std::make_shared<PcProfile>();
        prof->resize(unit.prog.code.size());
        m.attachProfile(prof->execCount.data(), prof->cycles.data());
    }

    RunResult r;
    auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
        return controls.deadlineSeconds > 0 &&
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                       .count() >= controls.deadlineSeconds;
    };
    // Run until the total cycle count exceeds @p target, honoring the
    // wall-clock deadline by chunking through Machine::resume (which is
    // cycle-invisible). Multiple calls continue the same run.
    bool started = false;
    auto runTo = [&](uint64_t target) {
        uint64_t budget = controls.deadlineSeconds > 0
                              ? std::min(target, (started ? m.stats().total
                                                          : uint64_t{0}) +
                                                     kDeadlineChunkCycles)
                              : target;
        r.stop = started ? m.resume(budget) : m.run(unit.entry, budget);
        started = true;
        while (r.stop == StopReason::CycleLimit && budget < target) {
            if (expired()) {
                r.timedOut = true;
                return;
            }
            budget = std::min(target, budget + kDeadlineChunkCycles);
            r.stop = m.resume(budget);
        }
    };

    if (controls.pauseHook && controls.pauseAtCycle > 0 &&
        controls.pauseAtCycle < controls.maxCycles) {
        runTo(controls.pauseAtCycle);
        if (r.stop == StopReason::CycleLimit && !r.timedOut) {
            // Paused at the requested cycle: the hook edits the live run.
            std::span<uint32_t, 32> regs = m.regs();
            controls.pauseHook(m.memory().words(), regs, unit);
            regs[0] = 0; // r0 is hardwired
            r.paused = true;
        }
    }
    if (!r.timedOut && (!started || r.stop == StopReason::CycleLimit))
        runTo(controls.maxCycles);
    r.stats = m.stats();
    r.output = m.output();
    r.errorCode = m.errorCode();
    r.exitValue = m.exitValue();
    r.faultIndex = m.faultIndex();
    r.gcCount = m.memory().load(unit.layout.cellAddr(Cell::GcCount));
    r.heapUsed = m.memory().load(unit.layout.cellAddr(Cell::HeapUsed));
    r.profile = std::move(prof);
    return r;
}

RunResult
runUnitOn(const CompiledUnit &unit, Memory image, uint64_t maxCycles)
{
    RunControls controls;
    controls.maxCycles = maxCycles;
    return runUnitOn(unit, std::move(image), controls);
}

RunResult
runUnit(const CompiledUnit &unit, uint64_t maxCycles)
{
    return runUnitOn(unit, unit.memory, maxCycles);
}

RunResult
compileAndRun(const std::string &source, const CompilerOptions &opts,
              uint64_t maxCycles)
{
    RunRequest req;
    req.source = source;
    req.opts = opts;
    req.exec.maxCycles = maxCycles;
    RunReport rep = Engine::defaultEngine().run(req);
    // Legacy contract: compile/internal failures throw, run errors are
    // encoded in the result (see run.h).
    if (rep.status.code == RunStatus::Code::CompileError)
        throw MxlError(MxlError::Kind::Fatal, rep.status.message);
    if (rep.status.code == RunStatus::Code::InternalError)
        throw MxlError(MxlError::Kind::Panic, rep.status.message);
    return rep.result;
}

} // namespace mxl
