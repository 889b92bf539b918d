#include "privacy/risk.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.h"

namespace pafs {

namespace {

double Entropy(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0) continue;
    double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

// Renumbers (old_cell, value) pairs into dense new cell ids.
int RefinePartition(const Dataset& data, const std::vector<int>& old_cells,
                    int feature, std::vector<int>* new_cells) {
  std::unordered_map<int64_t, int> remap;
  new_cells->resize(data.size());
  int card = data.FeatureCardinality(feature);
  int next = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    int64_t key = static_cast<int64_t>(old_cells[i]) * card +
                  data.row(i)[feature];
    auto [it, inserted] = remap.emplace(key, next);
    if (inserted) ++next;
    (*new_cells)[i] = it->second;
  }
  return next;
}

}  // namespace

DisclosureRisk::DisclosureRisk(const Dataset& background)
    : background_(&background), sensitive_(background.SensitiveFeatures()) {
  PAFS_CHECK_GT(background.size(), 0u);
  PAFS_CHECK_MSG(!sensitive_.empty(),
                 "dataset declares no sensitive features");
}

RiskReport DisclosureRisk::ReportForPartition(const std::vector<int>& cell_ids,
                                              int num_cells) const {
  const Dataset& data = *background_;
  const double n = static_cast<double>(data.size());
  RiskReport report;

  {
    std::vector<size_t> cell_sizes(num_cells, 0);
    for (int cell : cell_ids) ++cell_sizes[cell];
    report.min_cell_size = data.size();
    for (size_t size : cell_sizes) {
      if (size > 0) report.min_cell_size = std::min(report.min_cell_size, size);
    }
  }

  for (int s : sensitive_) {
    int card = data.FeatureCardinality(s);
    // Per-cell histogram of the sensitive attribute.
    std::vector<std::vector<double>> hist(num_cells,
                                          std::vector<double>(card, 0.0));
    std::vector<double> totals(num_cells, 0.0);
    std::vector<double> marginal(card, 0.0);
    for (size_t i = 0; i < data.size(); ++i) {
      int v = data.row(i)[s];
      hist[cell_ids[i]][v] += 1.0;
      totals[cell_ids[i]] += 1.0;
      marginal[v] += 1.0;
    }

    SensitiveRisk risk;
    risk.feature = s;
    double max_marginal = 0;
    for (double m : marginal) max_marginal = std::max(max_marginal, m);
    risk.baseline_success = max_marginal / n;

    double success = 0.0, conditional_entropy = 0.0, worst = 0.0;
    for (int g = 0; g < num_cells; ++g) {
      if (totals[g] <= 0) continue;
      double cell_max = 0;
      int distinct = 0;
      for (double c : hist[g]) {
        cell_max = std::max(cell_max, c);
        if (c > 0) ++distinct;
      }
      success += cell_max / n;  // (totals[g]/n) * (cell_max/totals[g])
      conditional_entropy += totals[g] / n * Entropy(hist[g], totals[g]);
      worst = std::max(worst, cell_max / totals[g]);
      if (report.min_diversity == 0 || distinct < report.min_diversity) {
        report.min_diversity = distinct;
      }
    }
    risk.attack_success = success;
    risk.lift = success - risk.baseline_success;
    risk.mutual_information = Entropy(marginal, n) - conditional_entropy;
    risk.worst_posterior = worst;

    report.max_lift = std::max(report.max_lift, risk.lift);
    report.max_mutual_information =
        std::max(report.max_mutual_information, risk.mutual_information);
    report.per_sensitive.push_back(risk);
  }
  return report;
}

RiskReport DisclosureRisk::Evaluate(
    const std::vector<int>& disclosure_set) const {
  std::vector<int> cells(background_->size(), 0);
  int num_cells = 1;
  std::vector<int> refined;
  for (int f : disclosure_set) {
    num_cells = RefinePartition(*background_, cells, f, &refined);
    cells.swap(refined);
  }
  return ReportForPartition(cells, num_cells);
}

RiskReport DisclosureRisk::EvaluateWithLabel(
    const std::vector<int>& disclosure_set) const {
  const Dataset& data = *background_;
  std::vector<int> cells(data.size(), 0);
  std::vector<int> refined;
  for (int f : disclosure_set) {
    RefinePartition(data, cells, f, &refined);
    cells.swap(refined);
  }
  // One extra refinement by the label column.
  std::unordered_map<int64_t, int> remap;
  int next = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    int64_t key = static_cast<int64_t>(cells[i]) * data.num_classes() +
                  data.label(i);
    auto [it, inserted] = remap.emplace(key, next);
    if (inserted) ++next;
    cells[i] = it->second;
  }
  return ReportForPartition(cells, next);
}

DisclosureRisk::Incremental::Incremental(const DisclosureRisk& risk)
    : risk_(risk) {
  partition_stack_.push_back(std::vector<int>(risk.background().size(), 0));
  num_cells_stack_.push_back(1);
}

void DisclosureRisk::Incremental::Push(int feature) {
  std::vector<int> refined;
  int cells = RefinePartition(risk_.background(), partition_stack_.back(),
                              feature, &refined);
  partition_stack_.push_back(std::move(refined));
  num_cells_stack_.push_back(cells);
  disclosed_.push_back(feature);
}

void DisclosureRisk::Incremental::Pop() {
  PAFS_CHECK(!disclosed_.empty());
  partition_stack_.pop_back();
  num_cells_stack_.pop_back();
  disclosed_.pop_back();
}

RiskReport DisclosureRisk::Incremental::Current() const {
  return risk_.ReportForPartition(partition_stack_.back(),
                                  num_cells_stack_.back());
}

}  // namespace pafs
