#include "gc/protocol.h"

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "gc/garble.h"
#include "obs/trace.h"
#include "ot/ot_pool.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"

namespace pafs {

namespace {

// Packs/unpacks a BitVec on the wire, a word at a time.
void SendBits(Channel& channel, const BitVec& bits) {
  channel.SendU64(bits.size());
  channel.SendBytes(bits.ToBytes());
}

BitVec RecvBits(Channel& channel) {
  uint64_t n = channel.RecvU64();
  // The bit count is untrusted wire data: bound it before sizing anything,
  // then demand the byte payload that exactly matches it.
  if (n > channel.max_message_bytes() * 8) {
    throw ProtocolError("RecvBits: bit count " + std::to_string(n) +
                        " exceeds cap");
  }
  std::vector<uint8_t> bytes = channel.RecvBytesExpected((n + 7) / 8);
  return BitVec::FromBytes(bytes.data(), n);
}

// Per-item garbled material in wire-ready form: flat table blocks plus the
// input labels and decode bits the later phases need. Pre-garbled items
// borrow their labels/decode; fresh ones own them via `storage`.
struct PreparedItem {
  std::vector<Block> flat_tables;
  const std::vector<std::array<Block, 2>>* input_labels;
  const BitVec* output_decode;
  GarbledCircuit storage;
  ClassicGarbledCircuit classic_storage;
};

std::vector<Block> FlattenHalfGates(const std::vector<GarbledTable>& tables) {
  std::vector<Block> flat;
  flat.reserve(tables.size() * 2);
  for (const GarbledTable& t : tables) {
    flat.push_back(t.tg);
    flat.push_back(t.te);
  }
  return flat;
}

}  // namespace

GcGarblerPushed GcGarblerPushBatch(Channel& channel,
                                   const std::vector<GcGarbleItem>& items,
                                   Rng& rng, GarblingScheme scheme,
                                   ThreadPool* pool) {
  const size_t n = items.size();
  for (const GcGarbleItem& item : items) {
    PAFS_CHECK_EQ(item.garbler_bits->size(), item.circuit->garbler_inputs());
    PAFS_CHECK_MSG(
        item.pregarbled == nullptr || scheme == GarblingScheme::kHalfGates,
        "pre-garbled circuits are half-gates only");
  }

  // 1. Garble (or adopt pre-garbled material) and ship the tables plus the
  // garbler's active input labels, one frame pair per item. Fresh-garble
  // seeds are drawn serially in item order first, so the rng stream reads
  // identically whether the garbling below runs serial or parallel — the
  // determinism the pooled-vs-fresh bit-identity tests pin down.
  channel.ThrowIfCancelled("gc garble");
  std::vector<PreparedItem> prepared(n);
  std::vector<size_t> fresh;
  std::vector<Block> seeds(n);
  for (size_t i = 0; i < n; ++i) {
    if (items[i].pregarbled != nullptr) {
      prepared[i].flat_tables =
          FlattenHalfGates(items[i].pregarbled->and_tables);
      prepared[i].input_labels = &items[i].pregarbled->input_labels;
      prepared[i].output_decode = &items[i].pregarbled->output_decode;
    } else {
      seeds[i] = Block(rng.NextU64(), rng.NextU64());
      fresh.push_back(i);
    }
  }
  auto garble_one = [&](size_t i, ThreadPool* inner) {
    Prg prg(seeds[i]);
    PreparedItem& p = prepared[i];
    if (scheme == GarblingScheme::kHalfGates) {
      p.storage = Garble(*items[i].circuit, prg, inner);
      p.flat_tables = FlattenHalfGates(p.storage.and_tables);
      p.input_labels = &p.storage.input_labels;
      p.output_decode = &p.storage.output_decode;
    } else {
      p.classic_storage = GarbleClassic(*items[i].circuit, prg, inner);
      p.flat_tables.reserve(p.classic_storage.and_tables.size() * 4);
      for (const auto& rows : p.classic_storage.and_tables) {
        p.flat_tables.insert(p.flat_tables.end(), rows.begin(), rows.end());
      }
      p.input_labels = &p.classic_storage.input_labels;
      p.output_decode = &p.classic_storage.output_decode;
    }
  };
  if (fresh.size() == 1) {
    // A lone fresh circuit parallelizes internally (across forest members).
    garble_one(fresh[0], pool);
  } else if (pool != nullptr && fresh.size() > 1) {
    // Several fresh circuits parallelize across items instead; nested
    // ParallelFor is unsupported, so the inner garble runs serial.
    pool->ParallelFor(0, fresh.size(), 1, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) garble_one(fresh[k], nullptr);
    });
  } else {
    for (size_t k = 0; k < fresh.size(); ++k) garble_one(fresh[k], nullptr);
  }
  for (size_t i = 0; i < n; ++i) {
    // The SendBlocks never block on the in-process channel, so gc.transfer
    // measures serialization, not waits.
    obs::TraceSpan transfer("gc.transfer");
    channel.SendBlocks(prepared[i].flat_tables);
    const Circuit& circuit = *items[i].circuit;
    std::vector<Block> own_labels(circuit.garbler_inputs());
    for (uint32_t j = 0; j < circuit.garbler_inputs(); ++j) {
      own_labels[j] =
          (*prepared[i].input_labels)[j][items[i].garbler_bits->Get(j) ? 1 : 0];
    }
    channel.SendBlocks(own_labels);
  }

  // 2. Output decode bits for every item in one frame. Decode bits are
  // garbling material, not input material, so they travel with the push —
  // the online half then owes the evaluator nothing but its own labels.
  {
    obs::TraceSpan transfer("gc.transfer");
    BitVec all_decode;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < prepared[i].output_decode->size(); ++j) {
        all_decode.PushBack(prepared[i].output_decode->Get(j));
      }
    }
    SendBits(channel, all_decode);
  }

  // 3. Keep only what the online half needs; the tables (the bulk of the
  // garbled material) free here.
  GcGarblerPushed pushed;
  for (size_t i = 0; i < n; ++i) {
    const Circuit& circuit = *items[i].circuit;
    for (uint32_t j = 0; j < circuit.evaluator_inputs(); ++j) {
      pushed.ot_messages.push_back(
          (*prepared[i].input_labels)[circuit.garbler_inputs() + j]);
    }
    pushed.output_counts.push_back(
        static_cast<uint32_t>(circuit.outputs().size()));
  }
  return pushed;
}

std::vector<BitVec> GcGarblerOnlineBatch(Channel& channel,
                                         GcGarblerPushed pushed,
                                         OtExtSender& ot,
                                         OtSenderPadPool* ot_pads) {
  // Evaluator input labels, one combined OT across the whole batch, then
  // learn the results. The final receive stays unspanned: it waits on the
  // evaluator's gc.eval, which already owns that wall time.
  channel.ThrowIfCancelled("gc ot send");
  if (!pushed.ot_messages.empty()) {
    PooledOtSend(channel, ot, pushed.ot_messages, ot_pads);
  }
  size_t total_outputs = 0;
  for (uint32_t count : pushed.output_counts) total_outputs += count;
  BitVec result = RecvBits(channel);
  if (result.size() != total_outputs) {
    throw ProtocolError("garbler: peer reported " +
                        std::to_string(result.size()) + " output bits, want " +
                        std::to_string(total_outputs));
  }
  std::vector<BitVec> outputs(pushed.output_counts.size());
  size_t offset = 0;
  for (size_t i = 0; i < pushed.output_counts.size(); ++i) {
    size_t count = pushed.output_counts[i];
    outputs[i] = BitVec(count);
    for (size_t j = 0; j < count; ++j) {
      outputs[i].Set(j, result.Get(offset + j));
    }
    offset += count;
  }
  return outputs;
}

std::vector<BitVec> GcRunGarblerBatch(Channel& channel,
                                      const std::vector<GcGarbleItem>& items,
                                      OtExtSender& ot, Rng& rng,
                                      GarblingScheme scheme, ThreadPool* pool,
                                      OtSenderPadPool* ot_pads) {
  GcGarblerPushed pushed =
      GcGarblerPushBatch(channel, items, rng, scheme, pool);
  return GcGarblerOnlineBatch(channel, std::move(pushed), ot, ot_pads);
}

GcEvaluatorPulled GcEvaluatorPullBatch(
    Channel& channel, const std::vector<const Circuit*>& circuits,
    GarblingScheme scheme) {
  const size_t n = circuits.size();
  const size_t blocks_per_gate =
      scheme == GarblingScheme::kHalfGates ? 2 : 4;

  GcEvaluatorPulled pulled;
  pulled.circuits = circuits;
  pulled.scheme = scheme;

  // 1. Per-item garbled tables and garbler active labels. The evaluator
  // knows each circuit, so it knows the exact frame sizes — demand them
  // instead of trusting the wire lengths.
  pulled.flats.resize(n);
  pulled.garbler_labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Circuit& circuit = *circuits[i];
    pulled.flats[i] = channel.RecvBlocksExpected(circuit.Stats().and_gates *
                                                 blocks_per_gate);
    pulled.garbler_labels[i] =
        channel.RecvBlocksExpected(circuit.garbler_inputs());
  }

  // 2. Decode bits for every item in one frame, validated before any
  // evaluation spends work on a malformed run.
  pulled.all_decode = RecvBits(channel);
  size_t total_outputs = 0;
  for (size_t i = 0; i < n; ++i) {
    total_outputs += circuits[i]->outputs().size();
  }
  if (pulled.all_decode.size() != total_outputs) {
    throw ProtocolError("evaluator: decode table has " +
                        std::to_string(pulled.all_decode.size()) +
                        " bits for " + std::to_string(total_outputs) +
                        " output labels");
  }
  return pulled;
}

std::vector<BitVec> GcEvaluatorOnlineBatch(Channel& channel,
                                           GcEvaluatorPulled pulled,
                                           const std::vector<GcEvalItem>& items,
                                           OtExtReceiver& ot, ThreadPool* pool,
                                           OtReceiverPadPool* ot_pads) {
  const size_t n = items.size();
  PAFS_CHECK_EQ(n, pulled.circuits.size());
  for (size_t i = 0; i < n; ++i) {
    PAFS_CHECK_MSG(items[i].circuit == pulled.circuits[i],
                   "online items must match the pulled circuits in order");
    PAFS_CHECK_EQ(items[i].evaluator_bits->size(),
                  items[i].circuit->evaluator_inputs());
  }
  const GarblingScheme scheme = pulled.scheme;
  std::vector<std::vector<Block>>& flats = pulled.flats;
  std::vector<std::vector<Block>>& garbler_labels = pulled.garbler_labels;
  BitVec& all_decode = pulled.all_decode;

  // Own labels via the combined batch OT.
  BitVec all_choices;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < items[i].evaluator_bits->size(); ++j) {
      all_choices.PushBack(items[i].evaluator_bits->Get(j));
    }
  }
  std::vector<Block> all_own_labels;
  if (all_choices.size() > 0) {
    all_own_labels = PooledOtRecv(channel, ot, all_choices, ot_pads);
  }

  // Evaluate. All protocol IO is done, so items evaluate concurrently
  // without touching the channel; a single item parallelizes internally.
  std::vector<BitVec> outputs(n);
  std::vector<size_t> ot_offsets(n);
  std::vector<size_t> decode_offsets(n);
  size_t ot_offset = 0;
  size_t decode_offset = 0;
  for (size_t i = 0; i < n; ++i) {
    ot_offsets[i] = ot_offset;
    decode_offsets[i] = decode_offset;
    ot_offset += items[i].circuit->evaluator_inputs();
    decode_offset += items[i].circuit->outputs().size();
  }
  auto eval_one = [&](size_t i, ThreadPool* inner) {
    const Circuit& circuit = *items[i].circuit;
    std::vector<Block> input_labels;
    input_labels.reserve(circuit.garbler_inputs() +
                         circuit.evaluator_inputs());
    input_labels.insert(input_labels.end(), garbler_labels[i].begin(),
                        garbler_labels[i].end());
    input_labels.insert(
        input_labels.end(), all_own_labels.begin() + ot_offsets[i],
        all_own_labels.begin() + ot_offsets[i] + circuit.evaluator_inputs());

    size_t num_and = circuit.Stats().and_gates;
    std::vector<Block> output_labels;
    if (scheme == GarblingScheme::kHalfGates) {
      std::vector<GarbledTable> tables(num_and);
      for (size_t g = 0; g < num_and; ++g) {
        tables[g] = GarbledTable{flats[i][2 * g], flats[i][2 * g + 1]};
      }
      output_labels = EvaluateGarbled(circuit, tables, input_labels, inner);
    } else {
      std::vector<std::array<Block, 4>> tables(num_and);
      for (size_t g = 0; g < num_and; ++g) {
        for (int r = 0; r < 4; ++r) tables[g][r] = flats[i][4 * g + r];
      }
      output_labels = EvaluateClassic(circuit, tables, input_labels, inner);
    }
    size_t count = circuit.outputs().size();
    BitVec decode(count);
    for (size_t j = 0; j < count; ++j) {
      decode.Set(j, all_decode.Get(decode_offsets[i] + j));
    }
    outputs[i] = DecodeOutputs(output_labels, decode);
  };
  if (n == 1) {
    eval_one(0, pool);
  } else if (pool != nullptr) {
    pool->ParallelFor(0, n, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) eval_one(i, nullptr);
    });
  } else {
    for (size_t i = 0; i < n; ++i) eval_one(i, nullptr);
  }

  // Report every item's outputs back in one frame.
  {
    obs::TraceSpan transfer("gc.transfer");
    BitVec all_outputs;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < outputs[i].size(); ++j) {
        all_outputs.PushBack(outputs[i].Get(j));
      }
    }
    SendBits(channel, all_outputs);
  }
  return outputs;
}

std::vector<BitVec> GcRunEvaluatorBatch(Channel& channel,
                                        const std::vector<GcEvalItem>& items,
                                        OtExtReceiver& ot,
                                        GarblingScheme scheme, ThreadPool* pool,
                                        OtReceiverPadPool* ot_pads) {
  std::vector<const Circuit*> circuits;
  circuits.reserve(items.size());
  for (const GcEvalItem& item : items) circuits.push_back(item.circuit);
  GcEvaluatorPulled pulled = GcEvaluatorPullBatch(channel, circuits, scheme);
  return GcEvaluatorOnlineBatch(channel, std::move(pulled), items, ot, pool,
                                ot_pads);
}

BitVec GcRunGarbler(Channel& channel, const Circuit& circuit,
                    const BitVec& garbler_bits, OtExtSender& ot, Rng& rng,
                    GarblingScheme scheme, ThreadPool* pool) {
  std::vector<GcGarbleItem> items = {GcGarbleItem{&circuit, &garbler_bits}};
  return GcRunGarblerBatch(channel, items, ot, rng, scheme, pool)[0];
}

BitVec GcRunEvaluator(Channel& channel, const Circuit& circuit,
                      const BitVec& evaluator_bits, OtExtReceiver& ot,
                      GarblingScheme scheme, ThreadPool* pool) {
  std::vector<GcEvalItem> items = {GcEvalItem{&circuit, &evaluator_bits}};
  return GcRunEvaluatorBatch(channel, items, ot, scheme, pool)[0];
}

}  // namespace pafs
