// Quickstart: the paper's §3 AspectJ tour, in AspectPar.
//
//   1. a plain core class (Point);
//   2. dynamic crosscutting: a Logging aspect intercepting `Point.move*`
//      (Figure 3), plugged and unplugged at run time;
//   3. static crosscutting: adding migrate() to Point without editing it
//      (Figure 2);
//   4. the punchline: the same Point code parallelised by plugging a
//      concurrency aspect — zero changes to Point or to the core lines.
//
// Build & run:  ./examples/quickstart
#include <cstdio>
#include <memory>
#include <string>

#include "apar/aop/aop.hpp"
#include "apar/obs/trace_aspect.hpp"
#include "apar/strategies/concurrency_aspect.hpp"

namespace aop = apar::aop;
namespace obs = apar::obs;

// --------------------------------------------------------------------------
// Core functionality (paper Figure 1) — knows nothing about aspects.
// --------------------------------------------------------------------------
class Point {
 public:
  void moveX(int delta) { x_ += delta; }
  void moveY(int delta) { y_ += delta; }
  [[nodiscard]] int x() const { return x_; }
  [[nodiscard]] int y() const { return y_; }

 private:
  int x_ = 0;
  int y_ = 0;
};

// Expose join point names (the design step the paper calls "provide
// adequate joinpoints").
APAR_CLASS_NAME(Point, "Point");
APAR_METHOD_NAME(&Point::moveX, "moveX");
APAR_METHOD_NAME(&Point::moveY, "moveY");

// --------------------------------------------------------------------------
// A dynamic crosscutting aspect (paper Figure 3): around `Point.move*`.
// --------------------------------------------------------------------------
std::shared_ptr<aop::Aspect> make_logging_aspect() {
  auto logging = std::make_shared<aop::Aspect>("Logging");
  logging->around_call<Point, void, int>(
      aop::Pattern("Point.move*"), aop::order::kDefault, aop::Scope::any(),
      [](aop::CallInvocation<Point, void, int>& inv) {
        std::printf("  [Logging] %s called with %d\n",
                    inv.signature().str().c_str(), std::get<0>(inv.args()));
        inv.proceed();  // proceed the original call
      });
  return logging;
}

// --------------------------------------------------------------------------
// Static crosscutting (paper Figure 2): introduce migrate() into Point.
// --------------------------------------------------------------------------
template <class Self>
struct Migratable {
  void migrate(const std::string& node) {
    std::printf("  [Static] migrate to %s\n", node.c_str());
  }
};

int main() {
  aop::Context ctx;

  std::printf("1) plain core functionality:\n");
  auto p = ctx.create<Point>();
  ctx.call<&Point::moveX>(p, 10);
  ctx.call<&Point::moveY>(p, 5);
  std::printf("  point at (%d, %d)\n", p.local()->x(), p.local()->y());

  std::printf("\n2) plug the Logging aspect (dynamic crosscutting):\n");
  ctx.attach(make_logging_aspect());
  ctx.call<&Point::moveX>(p, 1);
  ctx.call<&Point::moveY>(p, 2);

  std::printf("\n   ...and unplug it again:\n");
  ctx.detach("Logging");
  ctx.call<&Point::moveX>(p, 1);
  std::printf("  (silence — advice is gone; point at (%d, %d))\n",
              p.local()->x(), p.local()->y());

  std::printf("\n3) static crosscutting — Point with an introduced member:\n");
  aop::ct::Introduce<Point, Migratable> migratable_point;
  migratable_point.moveX(3);
  migratable_point.migrate("node-2");

  std::printf("\n4) plug concurrency — same core lines, now asynchronous:\n");
  auto conc = std::make_shared<apar::strategies::ConcurrencyAspect<Point>>(
      "Concurrency");
  conc->async_method<&Point::moveX>().async_method<&Point::moveY>();
  ctx.attach(conc);
  for (int i = 0; i < 100; ++i) {
    ctx.call<&Point::moveX>(p, 1);  // each call runs on its own thread,
    ctx.call<&Point::moveY>(p, 1);  // serialized by the object monitor
  }
  ctx.quiesce();
  std::printf("  after 200 asynchronous moves: (%d, %d)\n", p.local()->x(),
              p.local()->y());

  std::printf(
      "\n5) plug a Trace aspect — the paper's interaction diagrams, live:\n");
  auto tracer = std::make_shared<obs::Tracer>();
  auto trace = std::make_shared<obs::TraceAspect<Point>>(tracer);
  trace->trace_method<&Point::moveX>().trace_method<&Point::moveY>();
  ctx.attach(trace);
  ctx.call<&Point::moveX>(p, 1);
  ctx.call<&Point::moveY>(p, 1);
  ctx.quiesce();
  std::printf("%s", tracer->interaction_diagram().c_str());
  std::printf("summary:\n%s", tracer->summary().c_str());

  std::printf("\ndone — core Point code never changed.\n");
  return 0;
}
