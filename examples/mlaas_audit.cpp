// MLaaS marketplace audit — the paper's §1 motivating scenario.
//
// A model marketplace serves N black-box classifiers (some backdoored with
// a mix of attacks).  The auditor screens every model with BPROM first
// (model-level, front-line), then applies the input-level STRIP detector
// only to flagged models — the deployment order §1 argues for.
//
// This example refits the detector in-process every run.  For the
// long-lived deployment — fit once, persist, and serve batched audits
// across process restarts — see examples/serve_audit.cpp, which drives the
// same marketplace through api::AuditEngine.
#include <cstdio>
#include "core/experiment.hpp"
#include "defenses/evaluate.hpp"
#include "util/table.hpp"

int main() {
  using namespace bprom;
  auto scale = core::ExperimentScale::current();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 2);

  std::printf("== MLaaS audit: screening a model marketplace ==\n");
  // The marketplace: clean models plus an assortment of attacks.
  struct Listing {
    core::TrainedSuspicious model;
    std::string description;
  };
  std::vector<Listing> marketplace;
  std::size_t id = 0;
  for (int i = 0; i < 2; ++i) {
    marketplace.push_back({core::train_clean_model(
                               src, nn::ArchKind::kResNet18Mini, 800 + id++, scale),
                           "vendor upload (clean)"});
  }
  for (auto kind : {attacks::AttackKind::kBadNets, attacks::AttackKind::kWaNet,
                    attacks::AttackKind::kAdapBlend}) {
    auto atk = attacks::AttackConfig::defaults(kind, static_cast<int>(id % 10));
    marketplace.push_back({core::train_backdoored_model(
                               src, atk, nn::ArchKind::kResNet18Mini, 900 + id++, scale),
                           "vendor upload (" + attacks::attack_name(kind) + ")"});
  }

  std::printf("fitting BPROM detector (defender side, %zu+%zu shadows)...\n",
              scale.shadows_per_side, scale.shadows_per_side);
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  std::printf("\n%-4s %-30s %-8s %-8s %s\n", "id", "listing", "score",
              "verdict", "follow-up");
  for (std::size_t i = 0; i < marketplace.size(); ++i) {
    auto& listing = marketplace[i];
    nn::BlackBoxAdapter box(*listing.model.model);
    auto verdict = detector.inspect(box);
    std::string follow = "-";
    if (verdict.backdoored) {
      // Flagged: deploy input-level detection per query (STRIP).
      util::Rng rng(40 + i);
      auto atk = listing.model.backdoored
                     ? listing.model.attack
                     : attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets);
      auto eval = defenses::evaluate_input_level(
          defenses::DefenseKind::kStrip, *listing.model.model, src.test, atk,
          30, rng);
      follow = "STRIP per-input AUROC " + util::cell(eval.auroc);
    }
    std::printf("%-4zu %-30s %-8.3f %-8s %s\n", i, listing.description.c_str(),
                verdict.score, verdict.backdoored ? "BACKDOOR" : "clean",
                follow.c_str());
  }
  std::printf("\nGround truth: listings 0-1 clean; 2-4 backdoored.\n");
  return 0;
}
