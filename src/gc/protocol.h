// Two-party Yao protocol over a Channel: the garbler (model owner / server)
// garbles and sends the circuit material, the evaluator (patient / client)
// obtains its input labels via IKNP OT, evaluates, and shares the decoded
// outputs back. Semi-honest security, matching the paper's threat model.
//
// The batch entry points run N independent circuits as one protocol
// exchange: per-circuit table/label frames, then a single combined OT over
// every evaluator input bit (one extension matrix + one transpose for the
// whole batch), then one decode frame and one output frame. The single
// runners are the 1-item special case, so the wire format is shared.
//
// Offline material plugs in at two points: a pre-garbled circuit (from
// serve/precompute's GcPool) skips the online Garble call, and an OT pad
// pool turns the label transfer into the derandomized ot/ot_pool.h path.
// Both are optional; nullptr means the original online behavior.
//
// Every entry point takes an OT endpoint that is already Setup: the base
// OTs belong to whoever opens the session, never to a protocol run.
#ifndef PAFS_GC_PROTOCOL_H_
#define PAFS_GC_PROTOCOL_H_

#include <array>
#include <vector>

#include "circuit/circuit.h"
#include "net/channel.h"
#include "ot/iknp.h"
#include "util/bitvec.h"

namespace pafs {

class Rng;
class ThreadPool;
struct GarbledCircuit;
class OtSenderPadPool;
class OtReceiverPadPool;

// Which garbling scheme the protocol uses on the wire; both parties must
// agree. Classic exists for the F12 ablation.
enum class GarblingScheme { kHalfGates, kClassic };

// One garbler-side batch entry. `pregarbled`, when non-null, is consumed
// in place of a fresh Garble call — it must come from the same scheme
// (half-gates only) and be used exactly once; the pool layer enforces the
// single-use by popping. Pointers must outlive the call.
struct GcGarbleItem {
  const Circuit* circuit;
  const BitVec* garbler_bits;
  GarbledCircuit* pregarbled = nullptr;
};

// One evaluator-side batch entry.
struct GcEvalItem {
  const Circuit* circuit;
  const BitVec* evaluator_bits;
};

// Offline/online split of the batch exchange. The push half ships every
// input-independent byte — garbled tables, the garbler's active input
// labels (the model encoding, fixed across queries), and the output-decode
// bits — ahead of the query; what survives to the online half is only the
// evaluator-label OT, evaluation, and the output report. GcRunGarblerBatch
// (below) is push + online back to back on the same channel, so the wire
// format is shared and the halves can be timed separately.
//
// Garbler-side state carried from the push to the online half: the
// evaluator input label pairs (the OT messages, batch order) and each
// item's output-bit count for parsing the result frame. The garbled
// material itself is released when the push returns.
struct GcGarblerPushed {
  std::vector<std::array<Block, 2>> ot_messages;
  std::vector<uint32_t> output_counts;
};

// Evaluator-side material received by the pull half, held until the input
// row is known. `scheme` is recorded so the online half repacks tables
// correctly.
struct GcEvaluatorPulled {
  std::vector<const Circuit*> circuits;
  std::vector<std::vector<Block>> flats;           // Per-item table blocks.
  std::vector<std::vector<Block>> garbler_labels;  // Per-item active labels.
  BitVec all_decode;                               // Whole batch, one frame.
  GarblingScheme scheme = GarblingScheme::kHalfGates;
};

// Garbles (or adopts pre-garbled material) and ships tables + active
// garbler labels + decode bits. Fresh-garble seeds are drawn from `rng`
// serially in item order, so the stream reads identically whether garbling
// runs serial or parallel.
GcGarblerPushed GcGarblerPushBatch(
    Channel& channel, const std::vector<GcGarbleItem>& items, Rng& rng,
    GarblingScheme scheme = GarblingScheme::kHalfGates,
    ThreadPool* pool = nullptr);

// The garbler's online half: one combined OT over every evaluator input
// bit, then the output frame back from the evaluator.
std::vector<BitVec> GcGarblerOnlineBatch(Channel& channel,
                                         GcGarblerPushed pushed,
                                         OtExtSender& ot,
                                         OtSenderPadPool* ot_pads = nullptr);

// Receives the pushed material for `circuits` (sizes are demanded from the
// known circuit shapes, not trusted from the wire).
GcEvaluatorPulled GcEvaluatorPullBatch(
    Channel& channel, const std::vector<const Circuit*>& circuits,
    GarblingScheme scheme = GarblingScheme::kHalfGates);

// The evaluator's online half: combined OT for its own labels, evaluation
// (parallel across items when `pool` is non-null), one output frame back.
// `items` must name the same circuits, in order, as the pull.
std::vector<BitVec> GcEvaluatorOnlineBatch(
    Channel& channel, GcEvaluatorPulled pulled,
    const std::vector<GcEvalItem>& items, OtExtReceiver& ot,
    ThreadPool* pool = nullptr, OtReceiverPadPool* ot_pads = nullptr);

// Runs the garbler's side of a batch; returns each circuit's outputs (the
// evaluator reports them back) in item order. A non-null `pool`
// parallelizes garbling — across the batch when there are several fresh
// items, inside the circuit (e.g. the member trees of a forest) for a
// single one. `ot_pads`, when non-null and warm, derandomizes the label
// OT (see ot/ot_pool.h).
std::vector<BitVec> GcRunGarblerBatch(
    Channel& channel, const std::vector<GcGarbleItem>& items, OtExtSender& ot,
    Rng& rng, GarblingScheme scheme = GarblingScheme::kHalfGates,
    ThreadPool* pool = nullptr, OtSenderPadPool* ot_pads = nullptr);

// Runs the evaluator's side of a batch; returns each circuit's outputs in
// item order. Evaluation runs after all protocol IO, parallelized across
// items when `pool` is non-null.
std::vector<BitVec> GcRunEvaluatorBatch(
    Channel& channel, const std::vector<GcEvalItem>& items, OtExtReceiver& ot,
    GarblingScheme scheme = GarblingScheme::kHalfGates,
    ThreadPool* pool = nullptr, OtReceiverPadPool* ot_pads = nullptr);

// Single-circuit wrappers (1-item batches, same wire format), fully
// online: a fresh garble and an unpooled label OT.
BitVec GcRunGarbler(Channel& channel, const Circuit& circuit,
                    const BitVec& garbler_bits, OtExtSender& ot, Rng& rng,
                    GarblingScheme scheme = GarblingScheme::kHalfGates,
                    ThreadPool* pool = nullptr);

BitVec GcRunEvaluator(Channel& channel, const Circuit& circuit,
                      const BitVec& evaluator_bits, OtExtReceiver& ot,
                      GarblingScheme scheme = GarblingScheme::kHalfGates,
                      ThreadPool* pool = nullptr);

}  // namespace pafs

#endif  // PAFS_GC_PROTOCOL_H_
