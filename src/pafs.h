// Umbrella header: the public API of the PAFS library. Include this for
// the end-to-end pipeline; include individual headers for finer control.
#ifndef PAFS_PAFS_H_
#define PAFS_PAFS_H_

#include "core/pipeline.h"           // End-to-end pipeline + plans.
#include "core/selection.h"          // Disclosure selection algorithms.
#include "crypto/key_io.h"           // Paillier key persistence.
#include "data/csv.h"                // Dataset CSV IO.
#include "data/hypertension_gen.h"   // Synthetic cohort #2.
#include "data/warfarin_gen.h"       // Synthetic cohort #1 (+ extended).
#include "ml/dataset.h"              // Categorical datasets.
#include "ml/decision_tree.h"        // Classifier families.
#include "ml/discretizer.h"          // Continuous-attribute on-ramp.
#include "ml/linear_model.h"
#include "ml/metrics.h"              // Accuracy / F1 / cross-validation.
#include "ml/model_io.h"             // Model persistence.
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "net/throttle.h"            // Link emulation.
#include "obs/metrics.h"             // Telemetry counters/histograms.
#include "obs/report.h"              // Telemetry rendering (text/JSON).
#include "obs/trace.h"               // PafsTelemetry + phase spans.
#include "privacy/chow_liu.h"        // Adversary model.
#include "privacy/inference_attack.h"
#include "privacy/risk.h"            // Disclosure risk metrics.
#include "serve/engine.h"            // Protocol drivers, one per party.
#include "sharing/gmw.h"             // GMW backend.
#include "smc/cost_model.h"          // SMC cost prediction.
#include "smc/secure_forest.h"       // Secure classifier circuits.
#include "smc/secure_linear.h"
#include "smc/secure_linear_aby.h"   // OT-based linear backend.
#include "smc/secure_nb.h"
#include "smc/secure_tree.h"
#include "util/random.h"

#endif  // PAFS_PAFS_H_
